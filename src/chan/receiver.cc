#include "chan/receiver.hh"

#include "common/log.hh"

namespace wb::chan
{

ReceiverProgram::ReceiverProgram(std::vector<Addr> replacementA,
                                 std::vector<Addr> replacementB, Cycles tr,
                                 std::size_t sampleCount,
                                 unsigned warmupSweeps)
    : chaseA_(std::move(replacementA)), chaseB_(std::move(replacementB)),
      tr_(tr), sampleCount_(sampleCount), warmupSweeps_(warmupSweeps)
{
    for (unsigned sweep = 0; sweep < warmupSweeps_; ++sweep) {
        for (Addr a : chaseA_.order())
            warmupOrder_.push_back(a);
        for (Addr a : chaseB_.order())
            warmupOrder_.push_back(a);
    }
}

std::vector<double>
ReceiverProgram::latencies() const
{
    std::vector<double> out;
    out.reserve(obs_.size());
    for (const auto &o : obs_)
        out.push_back(o.latency);
    return out;
}

void
ReceiverProgram::startMeasurement(Rng &rng)
{
    PointerChase &chase = useA_ ? chaseA_ : chaseB_;
    chase.reshuffle(rng);
    measureOps_ = chase.batchedMeasurementOps();
    if (ditherGranule_ > 1) {
        // Coarse-timer observer: offset each measurement by a uniform
        // delay in [0, granule) so the quantized reading becomes an
        // unbiased estimator of the true latency — the property the
        // repetition decoder's block averaging integrates against
        // (docs/OBSERVERS.md). A sandboxed receiver gets this phase
        // randomness for free; modelling it explicitly keeps the
        // estimator honest instead of locking every sample to the
        // same counter phase.
        measureOps_.insert(measureOps_.begin(),
                           sim::MemOp::delay(rng.below(ditherGranule_)));
    }
    measurePos_ = 0;
    sawFirstTsc_ = false;
    phase_ = Phase::Measure;
}

std::optional<sim::MemOp>
ReceiverProgram::next(sim::ProcView &)
{
    switch (phase_) {
      case Phase::Warmup:
        // Untimed initialization: all warm-up sweeps in one batch.
        if (!warmupDone_ && !warmupOrder_.empty()) {
            warmupDone_ = true;
            return sim::MemOp::loadBatch(warmupOrder_.data(),
                                         warmupOrder_.size());
        }
        phase_ = Phase::Init;
        return sim::MemOp::tscRead();
      case Phase::Init:
        return sim::MemOp::tscRead();
      case Phase::Wait:
        return sim::MemOp::spinUntil(tlast_ + tr_);
      case Phase::Measure:
        if (measurePos_ < measureOps_.size())
            return measureOps_[measurePos_];
        panic("ReceiverProgram: measurement ops exhausted unexpectedly");
      case Phase::Done:
        return sim::MemOp::halt();
    }
    return sim::MemOp::halt();
}

void
ReceiverProgram::onResult(const sim::MemOp &op, const sim::OpResult &res,
                          sim::ProcView &view)
{
    switch (phase_) {
      case Phase::Warmup:
        // The warm-up batch completed; next() moves on to Init.
        break;
      case Phase::Init:
        // The Init phase consists of one TscRead; the phase was already
        // advanced by next(), so this result belongs to that read.
        tlast_ = res.tsc;
        phase_ = Phase::Wait;
        break;
      case Phase::Wait:
        tlast_ = res.tsc; // Algorithm 3: Tlast = TSC (post-spin)
        ditherGranule_ = view.noise().observer.coarseTimer()
                             ? view.noise().timerGranule()
                             : 1;
        startMeasurement(view.rng());
        break;
      case Phase::Measure:
        ++measurePos_;
        if (op.kind == sim::MemOp::Kind::TscRead) {
            if (!sawFirstTsc_) {
                sawFirstTsc_ = true;
                tscStart_ = res.tsc;
            } else {
                double latency = static_cast<double>(res.tsc) -
                                 static_cast<double>(tscStart_);
                const double sigma = view.noise().measSigma(tr_);
                if (sigma > 0.0)
                    latency += view.rng().gaussian(0.0, sigma);
                obs_.push_back({latency, view.now()});
                useA_ = !useA_; // Algorithm 2: alternate A and B
                if (obs_.size() >= sampleCount_) {
                    done_ = true;
                    phase_ = Phase::Done;
                } else {
                    phase_ = Phase::Wait;
                }
            }
        }
        break;
      case Phase::Done:
        break;
    }
}

} // namespace wb::chan
