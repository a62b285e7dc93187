#include "chan/channel.hh"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/log.hh"
#include "chan/degraded.hh"
#include "chan/receiver.hh"
#include "chan/sender.hh"
#include "chan/set_mapping.hh"
#include "chan/transport.hh"
#include "sim/scheduler.hh"
#include "sim/smt_core.hh"

namespace wb::chan
{

namespace
{

/** Run the platform once, modulating the per-slot levels @p dSeq. */
RawRun
runRawSequence(const ChannelConfig &cfg, const std::vector<unsigned> &dSeq)
{
    const ProtocolConfig &proto = cfg.protocol;
    const Encoding &enc = proto.encoding;
    if (enc.maxLevel() > cfg.platform.l1.ways)
        fatalf("runChannel: encoding level ", enc.maxLevel(),
               " exceeds associativity ", cfg.platform.l1.ways);
    const sim::ObserverModel &obs = cfg.noise.observer;
    if (obs.cls == sim::ObserverClass::FlushLatency && !obs.hasFlush) {
        fatalf("runChannel: flush-latency observer with hasFlush=false "
               "— use the eviction-only class");
    }

    Rng rootRng(cfg.seed);
    Rng calRng = rootRng.split();
    Rng runRng = rootRng.split();
    // Third split only for observers that discover their sets, so the
    // legacy calibration/run streams stay untouched for everyone else.
    std::optional<Rng> discoveryRng;
    if (obs.cls == sim::ObserverClass::EvictionOnly)
        discoveryRng.emplace(rootRng.split());

    // --- Offline calibration -> classifier centroids. The mix of
    // dirty-line levels matches the live encoding so the measured
    // steady-state baseline is the one the receiver will see. ---
    CalibrationConfig calCfg = cfg.calibration;
    if (calCfg.levelsMix.empty())
        calCfg.levelsMix = enc.levels();
    calCfg.targetSet = proto.targetSet;
    calCfg.replacementSize = proto.replacementSize;
    Calibration cal = calibrate(cfg.platform, cfg.noise, calCfg, calRng);

    // --- Platform. Under an active OS-noise config the front-end is
    // owned by a Scheduler (co-runners, timeslices, pollution); the
    // inactive default takes the plain path, which the scheduler run
    // loop degenerates to anyway (CoRunnerIsolation test). ---
    sim::Hierarchy hierarchy(cfg.platform, &runRng);
    std::optional<sim::Scheduler> sched;
    std::optional<sim::SmtCore> plainCore;
    if (cfg.scheduler.active()) {
        sched.emplace(static_cast<sim::MemorySystem &>(hierarchy),
                      cfg.noise, runRng, cfg.scheduler, cfg.seed);
    } else {
        plainCore.emplace(hierarchy, cfg.noise, runRng);
    }
    sim::SmtCore &core = sched ? sched->party(0) : *plainCore;
    const auto &layout = hierarchy.l1().layout();
    bool discoveryVerified = true;
    ChannelSets sets;
    if (discoveryRng) {
        // Eviction-only observer: the receiver's replacement sets come
        // from live timing-test discovery, not set arithmetic. Runs
        // against the raw hierarchy before the parties launch (the
        // attacker's setup phase); its accesses land in the eventual
        // receiver tid's counters.
        sets = discoverChannelSets(hierarchy, /*tid=*/1, proto.targetSet,
                                   cfg.platform.l1.ways,
                                   proto.replacementSize, *discoveryRng,
                                   &discoveryVerified);
    } else {
        sets = makeChannelSets(layout, proto.targetSet,
                               cfg.platform.l1.ways,
                               proto.replacementSize);
    }

    const TransmissionSchedule schedule = transmissionSchedule(
        dSeq.size(), proto.ts, cfg.senderStartSlots, cfg.sampleMargin);
    SenderProgram sender(sets.senderLines, dSeq, proto.ts);
    // The receiver variant follows the observer: Flushgeist reads the
    // write-back queue through timed clflush; everyone else times the
    // replacement-set chase (the eviction-only observer's receiver is
    // the load-timing one — it never flushes).
    const std::unique_ptr<ReceiverProgram> receiver =
        obs.cls == sim::ObserverClass::FlushLatency
            ? std::make_unique<FlushLatencyReceiverProgram>(
                  sets.replacementA, sets.replacementB, proto.tr,
                  schedule.sampleCount)
            : std::make_unique<ReceiverProgram>(
                  sets.replacementA, sets.replacementB, proto.tr,
                  schedule.sampleCount);

    const ThreadId senderTid = core.addThread(&sender, sim::AddressSpace(1),
                                              schedule.senderStart);
    const ThreadId receiverTid =
        core.addThread(receiver.get(), sim::AddressSpace(2), 0);

    // --- Optional co-resident noise processes (Sec. VI) ---
    std::vector<std::unique_ptr<NoiseProcess>> noisePrograms;
    for (unsigned i = 0; i < cfg.noiseProcesses; ++i) {
        auto lines = linesForSet(layout, proto.targetSet,
                                 std::max(1u, cfg.noiseCfg.burstLines),
                                 /*tagBase=*/0x300 + 0x10 * i);
        noisePrograms.push_back(
            std::make_unique<NoiseProcess>(std::move(lines), cfg.noiseCfg));
        core.addThread(noisePrograms.back().get(),
                       sim::AddressSpace(10 + i), /*startTime=*/500 * i);
    }

    const Cycles end =
        sched ? sched->run(schedule.horizon * sched->horizonStretch())
              : core.run(schedule.horizon);

    RawRun raw;
    raw.latencies = receiver->latencies();
    raw.discoveryVerified = discoveryVerified;
    raw.simulatedCycles = end;
    raw.senderCounters = hierarchy.counters(senderTid);
    raw.receiverCounters = hierarchy.counters(receiverTid);
    raw.senderTid = senderTid;
    raw.receiverTid = receiverTid;
    if (sched)
        raw.schedulerStats = sched->stats();
    raw.calibration = std::move(cal);
    return raw;
}

/** Shared implementation: run the platform with a given frame. */
ChannelResult
runWithFrame(const ChannelConfig &userCfg, const BitVec &frame)
{
    // Adjust for the configured observer (no-op, and bit-identical,
    // for the default cycle-accurate one): granule-aligned pacing,
    // repetition factor, flush-probe calibration, drain penalty.
    const DegradedPlan plan = planDegraded(userCfg);
    const ChannelConfig &cfg = plan.cfg;
    const ProtocolConfig &proto = cfg.protocol;

    // A coarse-timer plan holds every symbol for R slots so the
    // decoder can average each block back into one symbol.
    const std::vector<unsigned> frameLevels =
        frameToLevels(frame, proto.encoding, plan.repetition);
    const std::vector<unsigned> dSeq = repeatFrame(frameLevels, proto.frames);
    return scoreRawRun(runRawSequence(cfg, dSeq), frame, proto,
                       plan.repetition);
}

/**
 * The classifier a run's calibration gives for R-sample blocks: mean
 * centroids for R > 1 (the dithered samples' median is a point mass;
 * their mean is the unbiased true latency — chan/degraded.hh),
 * medians otherwise.
 */
Classifier
blockClassifier(const Calibration &cal, const Encoding &enc,
                unsigned repetition)
{
    return repetition > 1 ? cal.meanClassifierFor(enc)
                          : cal.classifierFor(enc);
}

} // namespace

ChannelResult
runChannel(const ChannelConfig &cfg)
{
    Rng frameRng(cfg.seed ^ 0xf00dULL);
    const BitVec frame =
        randomFrame(cfg.protocol.frameBits - 16, frameRng);
    return runWithFrame(cfg, frame);
}

TransportResult
legacyTransportResult(const ChannelResult &r, const ProtocolConfig &proto)
{
    TransportResult t;
    t.framesTotal = r.framesExpected;
    t.framesDelivered = r.framesScored;
    t.framesFailed = r.framesExpected - std::min(r.framesExpected,
                                                 r.framesScored);
    t.framesSent = r.framesExpected;
    const unsigned payloadBits =
        proto.frameBits >= 16 ? proto.frameBits - 16 : 0;
    t.payloadBitsTotal = std::uint64_t(r.framesExpected) * payloadBits;
    t.payloadBitsDelivered = std::uint64_t(r.framesScored) * payloadBits;
    t.residualBitErrors = static_cast<std::uint64_t>(
        r.ber * double(t.payloadBitsDelivered) + 0.5);
    t.residualBer = r.ber;
    t.goodputKbps = r.goodputKbps;
    t.rawRateKbps = r.rateKbps;
    t.rounds = 1;
    t.rateLevelByRound.push_back(0);
    t.ferByRound.push_back(
        r.framesExpected
            ? 1.0 - double(r.framesScored) / double(r.framesExpected)
            : 0.0);
    t.simulatedCycles = r.simulatedCycles;
    t.schedulerStats = r.schedulerStats;
    return t;
}

TransportResult
runTransport(const ChannelConfig &cfg, const BitVec &message)
{
    return runTransportOver(
        cfg, message, runChannel,
        [](const ChannelConfig &rung, const BitVec &stream) {
            // Observer adjustments apply per burst, after the rung
            // reshaped the pacing (a coarse plan re-aligns the rung's
            // Ts/Tr to the granule and holds each symbol R slots).
            const DegradedPlan plan = planDegraded(rung);
            const Encoding &enc = rung.protocol.encoding;
            const RawRun raw = runRawSequence(
                plan.cfg, frameToLevels(stream, enc, plan.repetition));
            return linkRunOf(raw, enc, plan.repetition);
        });
}

TransportResult
runTransport(const ChannelConfig &cfg)
{
    return runTransport(cfg, transportMessage(cfg.transport, cfg.seed));
}

ChannelResult
decodeLatencies(std::vector<double> latencies, const Classifier &classifier,
                const Encoding &encoding, const BitVec &frame,
                unsigned frames, double rateKbps, unsigned repetition)
{
    ChannelResult res;
    res.latencies = std::move(latencies);
    const DecodeResult dec =
        repetition > 1
            ? decodeTransmission(collapseRepetition(res.latencies, repetition),
                                 classifier, encoding, frame, frames)
            : decodeTransmission(res.latencies, classifier, encoding, frame,
                                 frames);
    res.repetition = repetition;
    res.ber = dec.ber;
    res.breakdown = dec.breakdown;
    res.aligned = dec.aligned;
    res.framesScored = dec.framesScored;
    res.framesExpected = dec.framesExpected;
    res.rateKbps = rateKbps / double(repetition);
    res.goodputKbps = res.rateKbps * (1.0 - std::min(1.0, res.ber));
    res.sentFrame = frame;
    res.decodedBits = dec.bitstream;
    return res;
}

ChannelResult
scoreRawRun(RawRun raw, const BitVec &frame, const ProtocolConfig &proto,
            unsigned repetition)
{
    const Encoding &enc = proto.encoding;
    ChannelResult res = decodeLatencies(
        std::move(raw.latencies),
        blockClassifier(raw.calibration, enc, repetition), enc, frame,
        proto.frames, proto.rateKbps(), repetition);
    res.evictionDiscoveryVerified = raw.discoveryVerified;
    res.calibrationMedians = raw.calibration.medianByD;
    res.senderCounters = raw.senderCounters;
    res.receiverCounters = raw.receiverCounters;
    res.senderTid = raw.senderTid;
    res.receiverTid = raw.receiverTid;
    res.simulatedCycles = raw.simulatedCycles;
    res.schedulerStats = raw.schedulerStats;
    return res;
}

LinkRun
linkRunOf(const RawRun &raw, const Encoding &encoding, unsigned repetition)
{
    const Classifier classifier =
        blockClassifier(raw.calibration, encoding, repetition);
    LinkRun run;
    run.bits = symbolsToBits(
        repetition > 1
            ? classifyAll(collapseRepetition(raw.latencies, repetition),
                          classifier)
            : classifyAll(raw.latencies, classifier),
        encoding);
    run.simulatedCycles = raw.simulatedCycles;
    run.schedulerStats = raw.schedulerStats;
    return run;
}

BitVec
transportMessage(const TransportConfig &transport, std::uint64_t seed)
{
    Rng msgRng(seed ^ 0x7ea45007ULL);
    return randomBits(std::size_t(transport.messageFrames) *
                          transport.layout.payloadBits,
                      msgRng);
}

std::string
transmitString(const ChannelConfig &cfg, const std::string &msg,
               ChannelResult *result)
{
    ChannelConfig local = cfg;
    BitVec frame = preamble16();
    const BitVec payload = fromString(msg);
    frame.insert(frame.end(), payload.begin(), payload.end());
    frame = padToSymbols(std::move(frame), local.protocol.encoding);
    local.protocol.frameBits = static_cast<unsigned>(frame.size());
    local.protocol.frames = 1;

    ChannelResult res = runWithFrame(local, frame);

    // Extract the payload bits following the aligned preamble.
    std::string decoded;
    auto anchor = alignByPattern(res.decodedBits, preamble16(), 2);
    if (anchor) {
        const std::size_t start = *anchor + 16;
        BitVec got;
        for (std::size_t i = start;
             i < res.decodedBits.size() && got.size() < payload.size(); ++i)
            got.push_back(res.decodedBits[i]);
        decoded = toString(got);
    }
    if (result != nullptr)
        *result = res;
    return decoded;
}

} // namespace wb::chan
