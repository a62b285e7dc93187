#include "chan/l2_channel.hh"

#include "chan/pointer_chase.hh"
#include "chan/receiver.hh"
#include "chan/set_mapping.hh"
#include "common/log.hh"
#include "sim/smt_core.hh"

namespace wb::chan
{

L2Sets
makeL2Sets(const sim::AddressLayout &l1Layout,
           const sim::AddressLayout &l2Layout, unsigned targetL2Set,
           unsigned senderCount, unsigned pusherCount,
           unsigned replacementSize)
{
    L2Sets sets;
    sets.senderLines =
        linesForSet(l2Layout, targetL2Set, senderCount, /*tagBase=*/1);
    sets.replacementA = linesForSet(l2Layout, targetL2Set,
                                    replacementSize, /*tagBase=*/0x1000);
    sets.replacementB = linesForSet(l2Layout, targetL2Set,
                                    replacementSize, /*tagBase=*/0x2000);

    // Pushers: same L1 set as the target L2 set's lines, but in other
    // L2 sets. The L1 index is the low bits of the L2 index.
    const unsigned l1Set =
        targetL2Set & (l1Layout.numSets() - 1);
    const unsigned groups =
        l2Layout.numSets() / l1Layout.numSets(); // L2 sets per L1 set
    unsigned produced = 0;
    for (Addr tag = 0x50; produced < pusherCount; ++tag) {
        for (unsigned g = 0; g < groups && produced < pusherCount; ++g) {
            const unsigned l2Set = l1Set + g * l1Layout.numSets();
            if (l2Set == targetL2Set)
                continue; // never touch the target L2 set
            sets.pushers.push_back(l2Layout.compose(l2Set, tag));
            ++produced;
        }
    }
    return sets;
}

L2SenderProgram::L2SenderProgram(std::vector<Addr> lines,
                                 std::vector<Addr> pushers,
                                 std::vector<bool> bits, unsigned d,
                                 Cycles ts)
    : lines_(std::move(lines)), pushers_(std::move(pushers)),
      bits_(std::move(bits)), d_(d), ts_(ts)
{
    if (d_ > lines_.size())
        fatalf("L2SenderProgram: needs ", d_, " lines, got ",
               lines_.size());
    if (pushers_.empty())
        fatalf("L2SenderProgram: needs pusher lines");
}

std::optional<sim::MemOp>
L2SenderProgram::next(sim::ProcView &)
{
    switch (phase_) {
      case Phase::Init:
        return sim::MemOp::tscRead();
      case Phase::Store:
        return sim::MemOp::store(lines_[lineIdx_]);
      case Phase::Push:
        return sim::MemOp::load(pushers_[pushIdx_]);
      case Phase::Wait:
        return sim::MemOp::spinUntil(tlast_ + ts_);
    }
    return sim::MemOp::halt();
}

void
L2SenderProgram::onResult(const sim::MemOp &op, const sim::OpResult &res,
                          sim::ProcView &)
{
    auto beginSlot = [this]() {
        if (bitIdx_ >= bits_.size()) {
            done_ = true;
            phase_ = Phase::Wait; // final spin, then the run ends
            return;
        }
        lineIdx_ = 0;
        pushIdx_ = 0;
        phase_ = bits_[bitIdx_] ? Phase::Store : Phase::Wait;
    };

    switch (op.kind) {
      case sim::MemOp::Kind::TscRead:
        tlast_ = res.tsc;
        beginSlot();
        break;
      case sim::MemOp::Kind::Store:
        pushIdx_ = 0;
        phase_ = Phase::Push;
        break;
      case sim::MemOp::Kind::Load:
        ++pushIdx_;
        if (pushIdx_ >= pushers_.size()) {
            // This line's write-back has been forced into L2.
            ++lineIdx_;
            phase_ = lineIdx_ < d_ ? Phase::Store : Phase::Wait;
        }
        break;
      case sim::MemOp::Kind::SpinUntil:
        if (done_) {
            phase_ = Phase::Init; // unreachable; next() halts via done_
            bits_.clear();
            break;
        }
        tlast_ = res.tsc;
        ++bitIdx_;
        beginSlot();
        break;
      default:
        break;
    }
}

namespace
{

/** In-situ calibration of the two L2-channel centroids. */
std::pair<double, double>
calibrateL2(const L2ChannelConfig &cfg, Rng &rng)
{
    sim::Hierarchy hierarchy(cfg.platform, &rng);
    const auto &l1Layout = hierarchy.l1().layout();
    const auto &l2Layout = hierarchy.l2().layout();
    auto sets = makeL2Sets(l1Layout, l2Layout, cfg.targetL2Set,
                           cfg.platform.l2.ways, cfg.pusherLines,
                           cfg.replacementSize);

    sim::AddressSpace senderSpace(1);
    sim::AddressSpace receiverSpace(2);
    PointerChase chaseA(sets.replacementA);
    PointerChase chaseB(sets.replacementB);

    // Warm both replacement sets (first pass pulls them from DRAM).
    for (int sweep = 0; sweep < 3; ++sweep) {
        hierarchy.accessBatch(1, receiverSpace, sets.replacementA,
                              false);
        hierarchy.accessBatch(1, receiverSpace, sets.replacementB,
                              false);
    }

    Samples s0, s1;
    bool useA = true;
    for (unsigned m = 0; m < 2 * cfg.calMeasurements + 4; ++m) {
        const bool one = rng.flip();
        if (one) {
            for (unsigned i = 0; i < cfg.d; ++i) {
                hierarchy.access(0,
                                 senderSpace.translate(sets.senderLines[i]),
                                 true);
                // Push the dirty line out of L1 into L2.
                hierarchy.accessBatch(0, senderSpace, sets.pushers,
                                      false);
            }
        }
        PointerChase &chase = useA ? chaseA : chaseB;
        chase.reshuffle(rng);
        double lat = measureChaseOffline(hierarchy, 1, receiverSpace,
                                         chase.order(), cfg.noise);
        lat = cfg.noise.observeOffline(lat, rng);
        useA = !useA;
        if (m >= 4)
            (one ? s1 : s0).add(lat);
    }
    return {s0.median(), s1.median()};
}

} // namespace

L2ChannelResult
runL2Channel(const L2ChannelConfig &cfg)
{
    Rng rootRng(cfg.seed);
    Rng calRng = rootRng.split();
    Rng frameRng = rootRng.split();
    Rng runRng = rootRng.split();

    auto [c0, c1] = calibrateL2(cfg, calRng);

    const BitVec frame = randomFrame(cfg.frameBits - 16, frameRng);
    const BitVec allBits = repeatFrame(frame, cfg.frames);

    sim::Hierarchy hierarchy(cfg.platform, &runRng);
    sim::SmtCore core(hierarchy, cfg.noise, runRng);
    auto sets = makeL2Sets(hierarchy.l1().layout(),
                           hierarchy.l2().layout(), cfg.targetL2Set,
                           cfg.platform.l2.ways, cfg.pusherLines,
                           cfg.replacementSize);

    L2SenderProgram sender(sets.senderLines, sets.pushers, allBits,
                           cfg.d, cfg.ts);
    const std::size_t sampleCount = allBits.size() + 8 + 96;
    ReceiverProgram receiver(sets.replacementA, sets.replacementB,
                             cfg.tr, sampleCount, /*warmupSweeps=*/3);

    const Cycles senderStart = 8 * cfg.ts;
    const ThreadId senderTid =
        core.addThread(&sender, sim::AddressSpace(1), senderStart);
    const ThreadId receiverTid =
        core.addThread(&receiver, sim::AddressSpace(2), 0);

    const Cycles horizon = senderStart +
        Cycles(allBits.size() + 8) * (cfg.ts + 60) + 400000;
    const Cycles end = core.run(horizon);

    L2ChannelResult res = decodeLatencies(
        receiver.latencies(), Classifier({c0, c1}), Encoding::binary(1),
        frame, cfg.frames, cfg.rateKbps());
    res.calibrationMedians = {c0, c1};
    res.senderCounters = hierarchy.counters(senderTid);
    res.receiverCounters = hierarchy.counters(receiverTid);
    res.simulatedCycles = end;
    return res;
}

} // namespace wb::chan
