#include "chan/sender.hh"

#include "common/log.hh"

namespace wb::chan
{

SenderProgram::SenderProgram(std::vector<Addr> lines,
                             std::vector<unsigned> dSequence, Cycles ts)
    : lines_(std::move(lines)), dSeq_(std::move(dSequence)), ts_(ts)
{
    unsigned maxD = 0;
    for (unsigned d : dSeq_)
        maxD = std::max(maxD, d);
    if (maxD > lines_.size())
        fatalf("SenderProgram: needs ", maxD, " lines, got ",
               lines_.size());
}

std::optional<sim::MemOp>
SenderProgram::next(sim::ProcView &)
{
    switch (phase_) {
      case Phase::Init:
        return sim::MemOp::tscRead();
      case Phase::Encode: {
        if (symbolIdx_ >= dSeq_.size()) {
            done_ = true;
            return sim::MemOp::halt();
        }
        // Algorithm 1: dirty the symbol's d lines as one batched store
        // sweep through the fused miss path, then wait out the slot.
        const unsigned d = dSeq_[symbolIdx_];
        if (d > 0)
            return sim::MemOp::storeBatch(lines_.data(), d);
        phase_ = Phase::Wait;
        return sim::MemOp::spinUntil(tlast_ + ts_);
      }
      case Phase::Wait:
        // onResult advances the phase; next() is never called while in
        // Wait because SpinUntil is the single op of this phase.
        return sim::MemOp::spinUntil(tlast_ + ts_);
    }
    return sim::MemOp::halt();
}

void
SenderProgram::onResult(const sim::MemOp &op, const sim::OpResult &res,
                        sim::ProcView &)
{
    switch (op.kind) {
      case sim::MemOp::Kind::TscRead:
        tlast_ = res.tsc;
        phase_ = Phase::Encode;
        break;
      case sim::MemOp::Kind::StoreBatch:
        phase_ = Phase::Wait;
        break;
      case sim::MemOp::Kind::SpinUntil:
        tlast_ = res.tsc; // Algorithm 3: Tlast = TSC (post-spin)
        ++symbolIdx_;
        phase_ = Phase::Encode;
        break;
      default:
        break;
    }
}

} // namespace wb::chan
