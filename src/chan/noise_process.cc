#include "chan/noise_process.hh"

#include "common/log.hh"

namespace wb::chan
{

NoiseProcess::NoiseProcess(std::vector<Addr> lines,
                           const NoiseProcessConfig &cfg)
    : SlotProgram(cfg.period), lines_(std::move(lines)),
      burstLines_(cfg.burstLines), storeFraction_(cfg.storeFraction)
{
    if (lines_.empty())
        fatalf("NoiseProcess: needs at least one line");
    // The queued sweeps point into burst_: it must never reallocate.
    burst_.reserve(burstLines_);
}

bool
NoiseProcess::beginSlot(std::size_t slot, sim::ProcView &view)
{
    if (slot == 0)
        return true; // the first period only sets the pace
    burst_.clear();
    accesses_ += burstLines_;
    std::size_t runStart = 0;
    bool runIsStore = false;
    auto queueRun = [&] {
        const Addr *first = burst_.data() + runStart;
        const std::size_t n = burst_.size() - runStart;
        push(runIsStore ? sim::MemOp::storeBatch(first, n)
                        : sim::MemOp::loadBatch(first, n));
    };
    for (unsigned i = 0; i < burstLines_; ++i) {
        // chance() consumes no draws for the pure 0.0/1.0 fractions,
        // so all-load and all-store noise stays deterministic
        // relative to the run RNG (and forms a single run).
        const bool isStore = view.rng().chance(storeFraction_);
        if (i > 0 && isStore != runIsStore) {
            queueRun();
            runStart = i;
        }
        runIsStore = isStore;
        burst_.push_back(lines_[nextLine_]);
        nextLine_ = (nextLine_ + 1) % lines_.size();
    }
    if (!burst_.empty())
        queueRun();
    return true;
}

} // namespace wb::chan
