#include "chan/multiset.hh"

#include "chan/calibration.hh"
#include "chan/receiver.hh"
#include "chan/set_mapping.hh"
#include "common/log.hh"
#include "sim/smt_core.hh"

namespace wb::chan
{

MultiSetSender::MultiSetSender(std::vector<std::vector<Addr>> linePools,
                               std::vector<bool> bits, unsigned d,
                               Cycles ts)
    : SlotProgram(ts), pools_(std::move(linePools)), bits_(std::move(bits)),
      d_(d)
{
    if (pools_.empty())
        fatalf("MultiSetSender: needs at least one set pool");
    for (const auto &pool : pools_)
        if (pool.size() < d_)
            fatalf("MultiSetSender: pool smaller than d");
}

bool
MultiSetSender::beginSlot(std::size_t slot, sim::ProcView &)
{
    const std::size_t k = pools_.size();
    for (std::size_t j = 0; j < k; ++j) {
        const std::size_t bitIdx = slot * k + j;
        if (bitIdx >= bits_.size()) {
            // The message ends in this slot: halt after its last bit.
            push(sim::MemOp::halt());
            break;
        }
        if (bits_[bitIdx]) {
            for (unsigned i = 0; i < d_; ++i)
                push(sim::MemOp::store(pools_[j][i]));
        }
    }
    return true;
}

MultiSetReceiver::MultiSetReceiver(std::vector<std::vector<Addr>> replA,
                                   std::vector<std::vector<Addr>> replB,
                                   Cycles tr, std::size_t slots)
    : SlotProgram(tr), slots_(slots)
{
    if (replA.empty() || replA.size() != replB.size())
        fatalf("MultiSetReceiver: mismatched replacement pools");
    for (auto &pool : replA)
        chaseA_.emplace_back(std::move(pool));
    for (auto &pool : replB)
        chaseB_.emplace_back(std::move(pool));
    // Prologue: two untimed warm-up sweeps over every A then every B
    // pool, as scalar loads.
    for (int sweep = 0; sweep < 2; ++sweep) {
        for (const auto *chases : {&chaseA_, &chaseB_})
            for (const PointerChase &chase : *chases)
                for (Addr a : chase.order())
                    push(sim::MemOp::load(a));
    }
}

void
MultiSetReceiver::queueChase(Rng &rng)
{
    PointerChase &chase = useA_ ? chaseA_[setIdx_] : chaseB_[setIdx_];
    chase.reshuffle(rng);
    pushTimed(chase.sweep());
}

bool
MultiSetReceiver::beginSlot(std::size_t slot, sim::ProcView &view)
{
    if (slot > 0) {
        setIdx_ = 0;
        queueChase(view.rng());
    }
    return true;
}

bool
MultiSetReceiver::onSample(double cycles, sim::ProcView &view)
{
    samples_.push_back(measuredLatency(cycles, period(), view));
    if (++setIdx_ < chaseA_.size()) {
        queueChase(view.rng());
        return true;
    }
    useA_ = !useA_;
    return ++slotsDone_ < slots_;
}

ChannelResult
runMultiSetChannel(const MultiSetConfig &cfg)
{
    Rng rootRng(cfg.seed);
    Rng calRng = rootRng.split();
    Rng frameRng = rootRng.split();
    Rng runRng = rootRng.split();

    // Calibrate once on set 0 (sets are symmetric by construction).
    CalibrationConfig calCfg;
    calCfg.targetSet = cfg.targetSet(0);
    calCfg.replacementSize = cfg.replacementSize;
    calCfg.measurements = cfg.calMeasurements;
    calCfg.levelsMix = {0, cfg.d};
    Calibration cal =
        calibrate(cfg.platform, cfg.noise, calCfg, calRng);
    Classifier classifier = cal.binaryClassifier(cfg.d);

    const BitVec frame = randomFrame(cfg.frameBits - 16, frameRng);
    const BitVec allBits = repeatFrame(frame, cfg.frames);

    sim::Hierarchy hierarchy(cfg.platform, &runRng);
    sim::SmtCore core(hierarchy, cfg.noise, runRng);
    const auto &layout = hierarchy.l1().layout();
    const unsigned k = cfg.setCount;

    std::vector<std::vector<Addr>> senderPools, replA, replB;
    for (unsigned j = 0; j < k; ++j) {
        const unsigned set = cfg.targetSet(j);
        senderPools.push_back(
            linesForSet(layout, set, cfg.platform.l1.ways, 1));
        replA.push_back(
            linesForSet(layout, set, cfg.replacementSize, 0x100));
        replB.push_back(
            linesForSet(layout, set, cfg.replacementSize, 0x200));
    }

    MultiSetSender sender(senderPools, allBits, cfg.d, cfg.ts);
    const std::size_t slots = (allBits.size() + k - 1) / k + 8 + 64;
    MultiSetReceiver receiver(replA, replB, cfg.tr, slots);

    const Cycles senderStart = 8 * cfg.ts;
    const ThreadId senderTid =
        core.addThread(&sender, sim::AddressSpace(1), senderStart);
    const ThreadId receiverTid =
        core.addThread(&receiver, sim::AddressSpace(2), 0);

    const Cycles horizon =
        senderStart + Cycles(slots + 8) * (cfg.ts + 60) + 400000;
    const Cycles end = core.run(horizon);

    ChannelResult res =
        decodeLatencies(receiver.samples(), classifier, Encoding::binary(1),
                        frame, cfg.frames, cfg.rateKbps());
    res.calibrationMedians = cal.medianByD;
    res.senderCounters = hierarchy.counters(senderTid);
    res.receiverCounters = hierarchy.counters(receiverTid);
    res.simulatedCycles = end;
    return res;
}

} // namespace wb::chan
