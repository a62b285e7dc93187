#include "baselines/framework.hh"

#include "common/log.hh"
#include "chan/set_mapping.hh"

namespace wb::baselines
{

BaselineResult
runBaseline(const BaselineConfig &cfg, const PartsFactory &factory)
{
    Rng rootRng(cfg.seed);
    Rng frameRng = rootRng.split();
    Rng runRng = rootRng.split();

    const BitVec frame = randomFrame(cfg.frameBits - 16, frameRng);
    const BitVec allBits = chan::repeatFrame(frame, cfg.frames);

    sim::Hierarchy hierarchy(cfg.platform, &runRng);
    sim::SmtCore core(hierarchy, cfg.noise, runRng);

    BaselineParts parts = factory(cfg, allBits, hierarchy, runRng);
    if (!parts.sender || !parts.receiver || !parts.latencySource)
        panic("runBaseline: factory returned incomplete parts");

    const chan::TransmissionSchedule sched = chan::transmissionSchedule(
        allBits.size(), cfg.ts, cfg.senderStartSlots, cfg.sampleMargin);
    const ThreadId senderTid = core.addThread(
        parts.sender.get(), parts.senderSpace, sched.senderStart);
    const ThreadId receiverTid =
        core.addThread(parts.receiver.get(), parts.receiverSpace, 0);

    std::vector<std::unique_ptr<chan::NoiseProcess>> noisePrograms;
    const auto &layout = hierarchy.l1().layout();
    for (unsigned i = 0; i < cfg.noiseProcesses; ++i) {
        auto lines = chan::linesForSet(
            layout, cfg.targetSet, std::max(1u, cfg.noiseCfg.burstLines),
            /*tagBase=*/0x300 + 0x10 * i);
        noisePrograms.push_back(std::make_unique<chan::NoiseProcess>(
            std::move(lines), cfg.noiseCfg));
        core.addThread(noisePrograms.back().get(),
                       sim::AddressSpace(10 + i), 500 * i);
    }

    core.run(sched.horizon);

    BaselineResult res;
    res.latencies = parts.latencySource->latencies();
    res.rateKbps = cfg.rateKbps();
    res.sentFrame = frame;
    res.framesExpected = cfg.frames;

    scoreBinaryLatencies(res, parts.centroidLow, parts.centroidHigh,
                         parts.invert, frame, cfg.frames);
    res.senderCounters = hierarchy.counters(senderTid);
    res.receiverCounters = hierarchy.counters(receiverTid);
    return res;
}

void
scoreBinaryLatencies(BaselineResult &res, double centroidLow,
                     double centroidHigh, bool invert,
                     const BitVec &frame, unsigned framesExpected)
{
    if (centroidHigh <= centroidLow)
        panic("scoreBinaryLatencies: centroidHigh must exceed "
              "centroidLow");
    chan::Classifier classifier({centroidLow, centroidHigh});
    const chan::Encoding enc = chan::Encoding::binary(1);
    auto symbols = chan::classifyAll(res.latencies, classifier);
    if (invert)
        for (auto &s : symbols)
            s = 1 - s;
    const BitVec bits = chan::symbolsToBits(symbols, enc);
    auto dec = chan::scoreFrames(bits, frame, framesExpected);
    res.ber = dec.ber;
    res.breakdown = dec.breakdown;
    res.aligned = dec.aligned;
    res.framesScored = dec.framesScored;
}

} // namespace wb::baselines
