/**
 * @file
 * Shared scaffolding for the baseline covert channels the paper
 * compares against (Table I / Secs. II, VI): the LRU-state channel
 * (Xiong & Szefer), Prime+Probe, Flush+Reload, Flush+Flush, and a
 * coherence-state (dirty/M vs clean/S flush timing) channel.
 *
 * All baselines share the WB channel's pacing (Algorithm 3) and the
 * frame/edit-distance evaluation so the comparison numbers differ only
 * in the transmission mechanism.
 */

#ifndef WB_BASELINES_FRAMEWORK_HH
#define WB_BASELINES_FRAMEWORK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/bitvec.hh"
#include "chan/channel.hh"
#include "chan/noise_process.hh"
#include "chan/protocol.hh"
#include "chan/slot_program.hh"
#include "sim/hierarchy.hh"
#include "sim/noise_model.hh"
#include "sim/platform.hh"
#include "sim/smt_core.hh"

namespace wb::baselines
{

/**
 * Configuration shared by every baseline channel (single core;
 * runCrossCorePrimeProbe() takes its core count as a parameter).
 */
struct BaselineConfig : sim::RunSpec
{
    BaselineConfig() : RunSpec(sim::kDefaultPlatform, 1) {}

    Cycles ts = 5500;        //!< sender period
    Cycles tr = 5500;        //!< receiver period
    unsigned frameBits = 128;
    unsigned frames = 30;
    unsigned targetSet = 13;
    double cpuGhz = 2.2;

    /** Co-resident noise processes touching the target set. */
    unsigned noiseProcesses = 0;
    chan::NoiseProcessConfig noiseCfg;

    /** Sender launch delay in slots. */
    unsigned senderStartSlots = 8;

    /** Extra receiver samples beyond the expected bit count. */
    unsigned sampleMargin = 96;

    /** Channel rate in kbps (binary symbols). */
    double rateKbps() const { return cpuGhz * 1e6 / double(ts); }
};

/**
 * Result of one baseline transmission experiment: the WB channel's
 * result type. Baselines fill BER, breakdown, rate and goodput,
 * alignment, latencies, sent frame and counters; the rest keep their
 * defaults.
 */
using BaselineResult = chan::ChannelResult;

/**
 * A paced bit sender/receiver pair. The runner owns the platform; the
 * factories create the two programs once the hierarchy layout and the
 * frame bit sequence are known.
 *
 * The receiver program must expose its per-slot latency samples via
 * the LatencySource interface.
 */
class LatencySource
{
  public:
    virtual ~LatencySource() = default;

    /** Per-slot measured latencies, in observation order. */
    virtual std::vector<double> latencies() const = 0;
};

/** What a baseline channel module hands to the shared runner. */
struct BaselineParts
{
    std::unique_ptr<sim::Program> sender;
    std::unique_ptr<sim::Program> receiver;
    LatencySource *latencySource = nullptr; //!< view into receiver

    /**
     * Calibrated centroids in increasing latency order. When the fast
     * symbol corresponds to bit 1 (Flush+Reload: a sender touch makes
     * the reload *faster*), set invert so the runner flips decoded
     * bits after classification.
     */
    double centroidLow = 0.0;
    double centroidHigh = 0.0;
    bool invert = false;

    /** Address spaces (factories add shared segments here). */
    sim::AddressSpace senderSpace{1};
    sim::AddressSpace receiverSpace{2};
};

/** Builds the two programs for a specific channel mechanism. */
using PartsFactory = std::function<BaselineParts(
    const BaselineConfig &cfg, const std::vector<bool> &frameBits,
    sim::Hierarchy &hierarchy, Rng &rng)>;

/**
 * Shared experiment loop: build platform, run sender+receiver (+noise
 * processes), classify the receiver's latencies against the two
 * calibrated centroids, align frames and score with edit distance.
 */
BaselineResult runBaseline(const BaselineConfig &cfg,
                           const PartsFactory &factory);

/**
 * The shared decode tail of every binary baseline: classify
 * res.latencies against {centroidLow, centroidHigh}, optionally
 * invert, align the repeated @p frame and score it with the edit
 * distance, filling res.ber/breakdown/aligned/framesScored and
 * res.goodputKbps = res.rateKbps * (1 - ber) (set rateKbps first).
 * @pre centroidHigh > centroidLow — panics otherwise; callers that
 * cannot guarantee separation branch before calling (see
 * runCrossCorePrimeProbe).
 */
void scoreBinaryLatencies(BaselineResult &res, double centroidLow,
                          double centroidHigh, bool invert,
                          const BitVec &frame, unsigned framesExpected);

} // namespace wb::baselines

#endif // WB_BASELINES_FRAMEWORK_HH
