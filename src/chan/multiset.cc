#include "chan/multiset.hh"

#include "chan/calibration.hh"
#include "chan/set_mapping.hh"
#include "common/log.hh"
#include "sim/smt_core.hh"

namespace wb::chan
{

MultiSetSender::MultiSetSender(std::vector<std::vector<Addr>> linePools,
                               std::vector<bool> bits, unsigned d,
                               Cycles ts)
    : pools_(std::move(linePools)), bits_(std::move(bits)), d_(d),
      ts_(ts)
{
    if (pools_.empty())
        fatalf("MultiSetSender: needs at least one set pool");
    for (const auto &pool : pools_)
        if (pool.size() < d_)
            fatalf("MultiSetSender: pool smaller than d");
}

void
MultiSetSender::advance()
{
    const unsigned k = static_cast<unsigned>(pools_.size());
    while (setIdx_ < k) {
        const std::size_t bitIdx = slotIdx_ * k + setIdx_;
        if (bitIdx >= bits_.size()) {
            phase_ = Phase::Done;
            return;
        }
        if (bits_[bitIdx] && storeIdx_ < d_) {
            phase_ = Phase::Encode;
            return;
        }
        ++setIdx_;
        storeIdx_ = 0;
    }
    phase_ = Phase::Wait;
}

std::optional<sim::MemOp>
MultiSetSender::next(sim::ProcView &)
{
    switch (phase_) {
      case Phase::Init:
        return sim::MemOp::tscRead();
      case Phase::Encode:
        return sim::MemOp::store(pools_[setIdx_][storeIdx_]);
      case Phase::Wait:
        return sim::MemOp::spinUntil(tlast_ + ts_);
      case Phase::Done:
        return sim::MemOp::halt();
    }
    return sim::MemOp::halt();
}

void
MultiSetSender::onResult(const sim::MemOp &op, const sim::OpResult &res,
                         sim::ProcView &)
{
    switch (op.kind) {
      case sim::MemOp::Kind::TscRead:
        tlast_ = res.tsc;
        setIdx_ = 0;
        storeIdx_ = 0;
        advance();
        break;
      case sim::MemOp::Kind::Store:
        ++storeIdx_;
        advance();
        break;
      case sim::MemOp::Kind::SpinUntil:
        tlast_ = res.tsc;
        ++slotIdx_;
        setIdx_ = 0;
        storeIdx_ = 0;
        advance();
        break;
      default:
        break;
    }
}

MultiSetReceiver::MultiSetReceiver(std::vector<std::vector<Addr>> replA,
                                   std::vector<std::vector<Addr>> replB,
                                   Cycles tr, std::size_t slots)
    : tr_(tr), slots_(slots)
{
    if (replA.empty() || replA.size() != replB.size())
        fatalf("MultiSetReceiver: mismatched replacement pools");
    for (auto &pool : replA) {
        for (Addr a : pool)
            warmupOrder_.push_back(a);
        chaseA_.emplace_back(std::move(pool));
    }
    for (auto &pool : replB) {
        for (Addr a : pool)
            warmupOrder_.push_back(a);
        chaseB_.emplace_back(std::move(pool));
    }
    // Two warm-up sweeps over everything.
    const std::size_t once = warmupOrder_.size();
    for (std::size_t i = 0; i < once; ++i)
        warmupOrder_.push_back(warmupOrder_[i]);
}

void
MultiSetReceiver::startMeasurement(Rng &rng)
{
    PointerChase &chase =
        useA_ ? chaseA_[setIdx_] : chaseB_[setIdx_];
    chase.reshuffle(rng);
    ops_ = chase.batchedMeasurementOps();
    opPos_ = 0;
    sawFirstTsc_ = false;
    phase_ = Phase::Measure;
}

std::optional<sim::MemOp>
MultiSetReceiver::next(sim::ProcView &)
{
    switch (phase_) {
      case Phase::Warmup:
        if (warmupPos_ < warmupOrder_.size())
            return sim::MemOp::load(warmupOrder_[warmupPos_]);
        phase_ = Phase::InitTsc;
        return sim::MemOp::tscRead();
      case Phase::InitTsc:
        return sim::MemOp::tscRead();
      case Phase::Wait:
        return sim::MemOp::spinUntil(tlast_ + tr_);
      case Phase::Measure:
        if (opPos_ < ops_.size())
            return ops_[opPos_];
        panic("MultiSetReceiver: ops exhausted");
      case Phase::Done:
        return sim::MemOp::halt();
    }
    return sim::MemOp::halt();
}

void
MultiSetReceiver::onResult(const sim::MemOp &op, const sim::OpResult &res,
                           sim::ProcView &view)
{
    switch (phase_) {
      case Phase::Warmup:
        ++warmupPos_;
        break;
      case Phase::InitTsc:
        tlast_ = res.tsc;
        phase_ = Phase::Wait;
        break;
      case Phase::Wait: {
        // Detect slot overruns: the previous slot's k chases spilling
        // past the boundary shows up as an immediate release.
        if (res.latency == 0)
            ++overruns_;
        tlast_ = res.tsc;
        setIdx_ = 0;
        startMeasurement(view.rng());
        break;
      }
      case Phase::Measure:
        ++opPos_;
        if (op.kind == sim::MemOp::Kind::TscRead) {
            if (!sawFirstTsc_) {
                sawFirstTsc_ = true;
                tscStart_ = res.tsc;
            } else {
                double lat = static_cast<double>(res.tsc - tscStart_);
                const double sigma = view.noise().measSigma(tr_);
                if (sigma > 0.0)
                    lat += view.rng().gaussian(0.0, sigma);
                samples_.push_back(lat);
                ++setIdx_;
                if (setIdx_ < chaseA_.size()) {
                    startMeasurement(view.rng());
                } else {
                    useA_ = !useA_;
                    ++slotsDone_;
                    phase_ = slotsDone_ >= slots_ ? Phase::Done
                                                  : Phase::Wait;
                }
            }
        }
        break;
      case Phase::Done:
        break;
    }
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
