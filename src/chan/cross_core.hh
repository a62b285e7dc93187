/**
 * @file
 * Cross-core WB covert channel over a shared LLC.
 *
 * The paper's channel runs sender and receiver as SMT siblings on one
 * physical core, sharing the L1D. This runner moves them to different
 * cores of a MultiCoreSystem and carries the same dirty-state signal
 * through the shared last-level cache instead:
 *
 *  - the sender (core 0) dirties d lines mapping to an agreed LLC set
 *    (d encodes the symbol, as in Algorithm 1);
 *  - the receiver (core 1) times a pointer-chased traversal of an
 *    LLC-sized replacement set mapping to the same LLC set
 *    (Algorithm 2 at LLC granularity, two sets used alternately);
 *  - each receiver fill that evicts an LLC line whose data is dirty —
 *    in the LLC itself or, via inclusive back-invalidation, in the
 *    sender's private caches — stalls for the DRAM drain
 *    (LatencyModel::llcDirtyEvictPenalty), so the traversal latency
 *    grows by roughly d penalties, exactly like the paper's L1 channel
 *    grows by d write-back penalties.
 *
 * On a non-inclusive LLC (xeonE5-2650-2core) the receiver's evictions
 * never reach the sender's private dirty lines and the channel closes
 * — the contrast examples/platform_sweep.cpp prints.
 */

#ifndef WB_CHAN_CROSS_CORE_HH
#define WB_CHAN_CROSS_CORE_HH

#include <string>

#include "chan/calibration.hh"
#include "chan/channel.hh"
#include "chan/protocol.hh"
#include "sim/multicore.hh"
#include "sim/noise_model.hh"
#include "sim/platform.hh"

namespace wb::chan
{

/**
 * Cross-core transmission experiment configuration. cores is the
 * MultiCoreSystem size: at least 2, a sender core and a receiver
 * core, even on single-core presets.
 */
struct CrossCoreChannelConfig : sim::RunSpec
{
    using sim::RunSpec::cores;

    unsigned senderCore = 0;   //!< core the sender is pinned to
    unsigned receiverCore = 1; //!< core the receiver is pinned to

    /** Pacing/encoding/framing. targetSet is ignored (LLC set used). */
    ProtocolConfig protocol;

    /** Agreed LLC set index both parties derive from their vaddrs. */
    unsigned targetLlcSet = 37;

    /**
     * Lines per receiver replacement set; 0 resolves to
     * llc.ways + 2, enough to replace the whole LLC set per sweep.
     */
    unsigned replacementSize = 0;

    CalibrationConfig calibration; //!< measurements/discard reused

    unsigned senderStartSlots = 8; //!< sender launch delay in slots
    unsigned sampleMargin = 96;    //!< extra receiver samples

    /**
     * OS-noise regime (Table VII): co-runners spread over the cores,
     * timeslicing where they share a party's core, and — when
     * migrationPeriod is set — periodic migration of the receiver
     * front-end to the next party-free core. Inactive by default.
     */
    sim::SchedulerConfig scheduler;

    /**
     * Resilient transport layer (resync + adaptive rate + ARQ), used
     * by runCrossCoreTransport(). Disabled by default; see
     * ChannelConfig::transport for the equivalence guarantee.
     */
    TransportConfig transport;

    CrossCoreChannelConfig() : RunSpec("desktop-inclusive-4core", 2)
    {
        // An LLC-set sweep is ~llc.ways DRAM misses, far slower than
        // the L1 channel's 10-line chase: slots are paced wider.
        protocol.ts = protocol.tr = 12000;
        protocol.frames = 8;
        protocol.encoding = Encoding::binary(4);
        calibration.measurements = 80;
    }
};

/**
 * Run one complete cross-core transmission experiment: offline
 * calibration of the receiver's LLC-sweep classifier, then the live
 * protocol on per-core SmtCore front-ends interleaved in global time
 * order, then decode. Reports the same ChannelResult as the same-core
 * runner, with sender/receiver counters taken from their cores.
 */
ChannelResult runCrossCoreChannel(const CrossCoreChannelConfig &cfg);

/**
 * Run a transport session (resync + adaptive rate + ARQ) over the
 * cross-core channel. Each round is one physical burst through a fresh
 * MultiCoreSystem at the controller's current rate rung; lost frames
 * are selectively retransmitted. This is the configuration where the
 * transport earns its keep: under the party-core time-sharing noise
 * preset the single-shot channel collapses to ~79% BER
 * (docs/SCHEDULER.md), while the transport sustains nonzero goodput.
 *
 * With cfg.transport.enabled == false this degenerates to the legacy
 * runCrossCoreChannel() path, repackaged via legacyTransportResult().
 */
TransportResult runCrossCoreTransport(const CrossCoreChannelConfig &cfg,
                                      const BitVec &message);

/** runCrossCoreTransport over a seed-derived random message. */
TransportResult runCrossCoreTransport(const CrossCoreChannelConfig &cfg);

} // namespace wb::chan

#endif // WB_CHAN_CROSS_CORE_HH
