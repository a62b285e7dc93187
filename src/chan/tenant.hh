/**
 * @file
 * Many-tenant WB-channel harness for sliced LLCs.
 *
 * The cross-core channel (chan/cross_core.hh) models one
 * sender/receiver pair that knows the LLC geometry and builds its
 * line pools by address arithmetic. On a slice-hashed LLC
 * (sim/slice_hash.hh) that arithmetic breaks — and a datacenter
 * socket does not host one pair, it hosts hundreds. This harness
 * stands up N concurrent tenant pairs on one MultiCoreSystem and runs
 * the full attack pipeline each pair would run on real hardware:
 *
 *  1. The receiver picks a victim line and reduces a same-set-index
 *     candidate pool to a minimal eviction set with timing tests only
 *     (chan::EvictionSetFinder) — no slice-hash knowledge.
 *  2. The sender finds lines congruent with the receiver's set by a
 *     cooperative conflict test: the receiver times a sweep of its
 *     set while the sender dirties one candidate; a slowdown means
 *     the candidate landed in the same slice-set.
 *  3. Both parties run a slotted binary channel: a '1' symbol dirties
 *     the sender's congruent lines, the receiver's timed sweep then
 *     pays the eviction + dirty-drain penalties
 *     (LatencyModel::llcDirtyEvictPenalty — the paper's WB signal);
 *     a '0' sweep stays at steady-state hit latency. A training
 *     preamble of known bits sets each pair's decision threshold.
 *
 * All pairs share the socket: their slots interleave in one global
 * loop, so pairs whose sets collide on a slice-set evict each other
 * and pairs time-sharing a core stretch its slot budget — the two
 * interference mechanisms the sweep quantifies as load grows
 * (docs/TENANTS.md). examples/tenant_scaling.cpp sweeps the pair
 * count over sim::SweepRunner and prints the scaling table CI
 * archives.
 */

#ifndef WB_CHAN_TENANT_HH
#define WB_CHAN_TENANT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/hierarchy.hh"
#include "sim/multicore.hh"
#include "sim/platform.hh"

namespace wb::chan
{

/**
 * Configuration of one many-tenant sweep run. cores is the
 * MultiCoreSystem size (at least 2).
 */
struct TenantSweepConfig : sim::RunSpec
{
    TenantSweepConfig() : RunSpec("dc-sliced-64core", 2) {}
    using sim::RunSpec::cores;

    /** Concurrent sender/receiver tenant pairs on the socket. */
    unsigned pairs = 64;

    /** Known alternating-bit slots that train each pair's threshold. */
    unsigned trainingSlots = 16;

    /** Random payload bits (= slots) each pair transmits after training. */
    unsigned payloadBits = 96;

    /** Congruent lines a sender dirties per '1' symbol (redundancy d). */
    unsigned d = 4;

    /**
     * Same-set-index lines in each discovery pool. With 8 slices a
     * pool line lands in the victim's slice with probability 1/8, so
     * the pool must comfortably exceed 8x the LLC associativity
     * (256 gives ~32 expected in-slice lines for 16 ways).
     */
    unsigned candidatePool = 256;

    /**
     * Aggregate-LLC set indices the pairs draw their target sets
     * from. Shrinking the range forces slice-set collisions — the
     * cross-pair interference axis (two pairs collide when they agree
     * on both the set index and, by hash luck, the slice).
     */
    unsigned targetSetRange = 64;

    /** Nominal protocol slot period, for capacity-rate conversion. */
    Cycles slotCycles = 6000;

    double cpuGhz = 3.0; //!< clock for cycles -> kbps conversion
};

/** Outcome of one tenant pair inside a sweep. */
struct TenantPairResult
{
    unsigned senderCore = 0;
    unsigned receiverCore = 0;

    /** Agreed aggregate-LLC set index (what the parties chose). */
    unsigned targetSet = 0;

    /**
     * Ground-truth slice of the victim line — experimenter's view for
     * the interference analysis, never shown to the tenants.
     */
    unsigned slice = 0;

    /**
     * Receiver's discovery self-verified minimal AND the sender found
     * all d congruent lines. Undiscovered pairs still transmit (their
     * BER sits near coin-flip and contributes ~0 capacity).
     */
    bool discovered = false;

    unsigned senderLineCount = 0;        //!< congruent lines found (<= d)
    std::uint64_t discoveryTests = 0;    //!< receiver eviction tests
    std::uint64_t discoveryAccesses = 0; //!< receiver discovery accesses

    /** Payload bit-error rate of this pair. */
    double ber = 0.0;

    /**
     * Another pair targets the same (slice, slice-set) — ground
     * truth; these are the pairs expected to interfere.
     */
    bool collides = false;
};

/** Socket-wide outcome of one many-tenant sweep run. */
struct TenantSweepResult
{
    std::vector<TenantPairResult> pairs;

    unsigned discovered = 0;     //!< pairs with full discovery success
    unsigned collidingPairs = 0; //!< pairs sharing a slice-set

    double meanBer = 0.0;
    double maxBer = 0.0;
    double meanBerClean = 0.0;     //!< mean BER over non-colliding pairs
    double meanBerColliding = 0.0; //!< mean BER over colliding pairs

    /**
     * Aggregate channel capacity, sum over pairs of the binary
     * symmetric channel rate 1 - H2(min(ber, 1 - ber)) in bits per
     * slot.
     */
    double aggregateBitsPerSlot = 0.0;

    /**
     * Capacity in kbps at cpuGhz, paced by the *effective* slot
     * period: the configured slotCycles, stretched when the busiest
     * core's per-slot work no longer fits it (tenants time-sharing a
     * core saturate its slot budget — the second interference axis).
     */
    double aggregateKbps = 0.0;

    /** Mean busiest-core cycles per slot / slotCycles (>1 = saturated). */
    double busiestCoreUtil = 0.0;

    /** Coherence traffic of the signaling phases (directory mode). */
    sim::CoherenceStats coherence;

    /**
     * Private-cache probes the retired global scan would have issued
     * for the same events — the denominator of the O(cores) ->
     * O(sharers) win reported in docs/PERF.md.
     */
    std::uint64_t scanProbeEquivalent = 0;
};

/**
 * Run one many-tenant sweep: set up cfg.pairs tenant pairs (discovery
 * + conflict search), run the slotted channel, decode, and aggregate.
 * Deterministic for a given config (noise included via the seed).
 */
TenantSweepResult runTenantSweep(const TenantSweepConfig &cfg);

} // namespace wb::chan

#endif // WB_CHAN_TENANT_HH
