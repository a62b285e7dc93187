/**
 * @file
 * End-to-end WB covert channel runner.
 *
 * Orchestrates one complete transmission experiment: calibrate the
 * classifier offline, stand up a simulated hyper-threaded platform with
 * sender and receiver as separate processes (disjoint address spaces),
 * run the protocol, decode, and report BER/throughput — the measurement
 * loop behind paper Figs. 5, 6, 7 and Tables VI, VII.
 */

#ifndef WB_CHAN_CHANNEL_HH
#define WB_CHAN_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "chan/calibration.hh"
#include "chan/noise_process.hh"
#include "chan/protocol.hh"
#include "chan/transport.hh"
#include "sim/hierarchy.hh"
#include "sim/noise_model.hh"
#include "sim/platform.hh"
#include "sim/scheduler.hh"

namespace wb::chan
{

/** Complete experiment configuration (single core). */
struct ChannelConfig : sim::RunSpec
{
    ChannelConfig() : RunSpec(sim::kDefaultPlatform, 1) {}

    ProtocolConfig protocol;       //!< pacing/encoding/framing
    CalibrationConfig calibration; //!< offline calibration parameters

    /** Sender launch delay in slots (receiver starts first). */
    unsigned senderStartSlots = 8;

    /** Extra receiver samples beyond the expected symbol count. */
    unsigned sampleMargin = 96;

    /** Number of co-resident noise processes (Sec. VI experiments). */
    unsigned noiseProcesses = 0;
    NoiseProcessConfig noiseCfg; //!< their behaviour

    /**
     * OS-noise regime (Table VII): co-runner mix, timeslices with
     * context-switch pollution, migration. Inactive by default — the
     * run is then bit-identical to the schedulerless path. Platform
     * presets carry a tuned default in Platform::noisePreset; opt in
     * with cfg.scheduler = sim::platform(name).noisePreset (and set
     * scheduler.coRunners, e.g. via SchedulerConfig::mixOf).
     */
    sim::SchedulerConfig scheduler;

    /**
     * Resilient transport layer (resync + adaptive rate + ARQ), used
     * by runTransport(). Disabled by default — runChannel() never
     * reads it, and a disabled runTransport() degenerates to the
     * legacy single-shot path, bit-identical to the pre-transport
     * runner (same guarantee SchedulerConfig makes).
     */
    TransportConfig transport;
};

/** Everything a transmission experiment produces. */
struct ChannelResult
{
    double ber = 1.0;                  //!< edit-distance bit error rate
    EditBreakdown breakdown;           //!< error-type totals
    double rateKbps = 0.0;             //!< raw channel rate
    double goodputKbps = 0.0;          //!< rate * (1 - ber)
    bool aligned = false;              //!< preamble ever found
    unsigned framesScored = 0;
    unsigned framesExpected = 0;

    BitVec sentFrame;                  //!< the repeated frame
    BitVec decodedBits;                //!< full decoded bit stream
    std::vector<double> latencies;     //!< receiver raw observations

    /**
     * Samples averaged per symbol by the coarse-timer repetition
     * decoder (1 = no amplification). rateKbps and goodputKbps are
     * already divided by it — the *effective* bit rate, not the raw
     * slot rate (the goodput-honesty rule; see chan/degraded.hh).
     */
    unsigned repetition = 1;

    /**
     * Eviction-only observer: did EvictionSetFinder verify both
     * discovered replacement sets minimal? False means the run fell
     * back to the architectural sets (always true for observers that
     * don't discover).
     */
    bool evictionDiscoveryVerified = true;

    std::vector<double> calibrationMedians; //!< classifier centroids

    sim::PerfCounters senderCounters;   //!< sender process perf view
    sim::PerfCounters receiverCounters; //!< receiver process perf view
    Cycles simulatedCycles = 0;         //!< wall virtual time

    /**
     * Thread ids the parties ran under (set by both the same-core and
     * the cross-core runner). Detection harnesses use these to label
     * which monitored tids were the covert pair — everything else on
     * the machine is benign by construction.
     */
    ThreadId senderTid = 0;
    ThreadId receiverTid = 0;

    /** What the OS-noise layer did (zeros when it was inactive). */
    sim::SchedulerStats schedulerStats;
};

/** Run one complete covert-channel transmission experiment. */
ChannelResult runChannel(const ChannelConfig &cfg);

/**
 * Run a transport session (resync + adaptive rate + ARQ) over the
 * single-core channel: @p message is chunked into sequence-numbered
 * CRC frames, each round is one physical burst through the simulated
 * platform at the controller's current rate rung, and lost frames are
 * selectively retransmitted within cfg.transport's retry budget.
 *
 * With cfg.transport.enabled == false this degenerates to the legacy
 * runChannel() path — same RNG draws, same operation order — and
 * repackages its result via legacyTransportResult().
 */
TransportResult runTransport(const ChannelConfig &cfg,
                             const BitVec &message);

/** runTransport over a seed-derived random message of
 *  cfg.transport.messageFrames * layout.payloadBits bits. */
TransportResult runTransport(const ChannelConfig &cfg);

/**
 * Map a legacy single-shot ChannelResult into transport terms (used by
 * the transport-off degenerate path): one "frame" per protocol frame
 * scored, goodput and BER carried over verbatim.
 */
TransportResult legacyTransportResult(const ChannelResult &r,
                                      const ProtocolConfig &proto);

/**
 * Convenience: transmit an arbitrary byte string once (no frame
 * repetition) and return the decoded string. Used by the quickstart
 * example; BER and metadata are still reported via @p result when
 * non-null.
 */
std::string transmitString(const ChannelConfig &cfg, const std::string &msg,
                           ChannelResult *result = nullptr);

// ------------------------------------------------------------------
// Runner scaffolding shared by the WB channel runners (same-core,
// cross-core, L2, multi-set) and both transport links.
// ------------------------------------------------------------------

/**
 * One physical pass through a simulated platform: everything below
 * the bit level. The same-core and the cross-core platform runner each
 * produce one, for the single-shot path and the transport link alike,
 * so the two paths stay in lockstep — same RNG splits, same
 * calibration, same thread wiring.
 */
struct RawRun
{
    std::vector<double> latencies;      //!< receiver raw observations
    Cycles simulatedCycles = 0;
    sim::PerfCounters senderCounters;
    sim::PerfCounters receiverCounters;
    ThreadId senderTid = 0;
    ThreadId receiverTid = 0;
    sim::SchedulerStats schedulerStats;
    Calibration calibration;

    /** Eviction-only observer: both discovered sets verified minimal
     *  (true whenever no discovery ran). */
    bool discoveryVerified = true;
};

/**
 * Decode a receiver's latencies against @p classifier, score them
 * against @p frame sent @p frames times, and fill the ChannelResult
 * fields every runner shares: latencies, score, sent frame, decoded
 * bits, rate and goodput. With @p repetition R > 1 each R-sample
 * block is averaged into one symbol first, and the rate is divided by
 * R — the effective bit rate (the goodput-honesty rule,
 * docs/OBSERVERS.md).
 */
ChannelResult decodeLatencies(std::vector<double> latencies,
                              const Classifier &classifier,
                              const Encoding &encoding, const BitVec &frame,
                              unsigned frames, double rateKbps,
                              unsigned repetition = 1);

/**
 * Turn a raw run of @p frame, sent proto.frames times with every
 * symbol held for @p repetition slots, into a ChannelResult: decode
 * against the run's own calibration (mean centroids for R > 1 blocks,
 * medians otherwise) and carry over its counters, thread ids, cycles
 * and scheduler stats.
 */
ChannelResult scoreRawRun(RawRun raw, const BitVec &frame,
                          const ProtocolConfig &proto, unsigned repetition);

/** Classify a transport burst's raw run into the link's bit stream. */
LinkRun linkRunOf(const RawRun &raw, const Encoding &encoding,
                  unsigned repetition);

/** The seed-derived random message of the runTransport(cfg)
 *  conveniences: transport.messageFrames * layout.payloadBits bits. */
BitVec transportMessage(const TransportConfig &transport,
                        std::uint64_t seed);

/**
 * The transport entry both topologies share. With
 * cfg.transport.enabled == false it is the legacy single-shot runner
 * @p singleShot repackaged via legacyTransportResult() — same RNG
 * draws, same operation order. Otherwise each burst of the session
 * copies @p cfg with the round seed and the rung's pacing and
 * encoding, pads the stream to whole symbols, and hands both to
 * @p burst, which runs the platform once and returns the LinkRun.
 */
template <class Config, class Burst>
TransportResult
runTransportOver(const Config &cfg, const BitVec &message,
                 ChannelResult (*singleShot)(const Config &), Burst burst)
{
    if (!cfg.transport.enabled)
        return legacyTransportResult(singleShot(cfg), cfg.protocol);
    const TransportLink link = [&cfg, &burst](const BitVec &stream,
                                              const RateStep &rate,
                                              std::uint64_t seed) {
        Config rung = cfg;
        rung.seed = seed;
        // The ladder only ever keeps Ts (binary fallback and the
        // d-shrink footprint rungs) or widens it by powers of two, so
        // the Tr:Ts ratio survives the integer arithmetic exactly.
        rung.protocol.tr = cfg.protocol.tr * (rate.ts / cfg.protocol.ts);
        rung.protocol.ts = rate.ts;
        rung.protocol.encoding = rate.encoding;
        return burst(rung, padToSymbols(stream, rate.encoding));
    };
    return runTransportSession(cfg.transport, cfg.protocol, message, link,
                               cfg.seed);
}

} // namespace wb::chan

#endif // WB_CHAN_CHANNEL_HH
