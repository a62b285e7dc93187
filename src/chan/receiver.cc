#include "chan/receiver.hh"

namespace wb::chan
{

double
measuredLatency(double cycles, Cycles tr, sim::ProcView &view)
{
    const double sigma = view.noise().measSigma(tr);
    if (sigma > 0.0)
        cycles += view.rng().gaussian(0.0, sigma);
    return cycles;
}

ReceiverProgram::ReceiverProgram(std::vector<Addr> replacementA,
                                 std::vector<Addr> replacementB, Cycles tr,
                                 std::size_t sampleCount,
                                 unsigned warmupSweeps)
    : SlotProgram(tr), chaseA_(std::move(replacementA)),
      chaseB_(std::move(replacementB)), sampleCount_(sampleCount)
{
    for (unsigned sweep = 0; sweep < warmupSweeps; ++sweep) {
        for (Addr a : chaseA_.order())
            warmupOrder_.push_back(a);
        for (Addr a : chaseB_.order())
            warmupOrder_.push_back(a);
    }
    // Untimed initialization: all warm-up sweeps in one batch.
    if (!warmupOrder_.empty()) {
        push(sim::MemOp::loadBatch(warmupOrder_.data(),
                                   warmupOrder_.size()));
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

bool
ReceiverProgram::beginSlot(std::size_t slot, sim::ProcView &view)
{
    if (slot > 0)
        queueMeasurement(useA_ ? chaseA_ : chaseB_, view);
    return true;
}

void
ReceiverProgram::queueMeasurement(PointerChase &chase, sim::ProcView &view)
{
    chase.reshuffle(view.rng());
    const sim::NoiseModel &noise = view.noise();
    const Cycles granule =
        noise.observer.coarseTimer() ? noise.timerGranule() : 1;
    if (granule > 1) {
        // Coarse-timer observer: offset each measurement by a uniform
        // delay in [0, granule) so the quantized reading becomes an
        // unbiased estimator of the true latency — the property the
        // repetition decoder's block averaging integrates against
        // (docs/OBSERVERS.md). A sandboxed receiver gets this phase
        // randomness for free; modelling it explicitly keeps the
        // estimator honest instead of locking every sample to the
        // same counter phase.
        push(sim::MemOp::delay(view.rng().below(granule)));
    }
    pushTimed(chase.sweep());
}

bool
ReceiverProgram::onSample(double cycles, sim::ProcView &view)
{
    obs_.push_back({measuredLatency(cycles, period(), view), view.now()});
    useA_ = !useA_; // Algorithm 2: alternate A and B
    return obs_.size() < sampleCount_;
}

} // namespace wb::chan
