#include "chan/sender.hh"

#include "common/log.hh"

namespace wb::chan
{

SenderProgram::SenderProgram(std::vector<Addr> lines,
                             std::vector<unsigned> dSequence, Cycles ts)
    : SlotProgram(ts), lines_(std::move(lines)),
      dSeq_(std::move(dSequence))
{
    unsigned maxD = 0;
    for (unsigned d : dSeq_)
        maxD = std::max(maxD, d);
    if (maxD > lines_.size())
        fatalf("SenderProgram: needs ", maxD, " lines, got ",
               lines_.size());
}

bool
SenderProgram::beginSlot(std::size_t slot, sim::ProcView &)
{
    symbolIdx_ = slot;
    if (slot >= dSeq_.size())
        return false;
    // Algorithm 1: dirty the symbol's d lines as one batched store
    // sweep through the fused miss path, then wait out the slot.
    if (const unsigned d = dSeq_[slot]; d > 0)
        push(sim::MemOp::storeBatch(lines_.data(), d));
    return true;
}

} // namespace wb::chan
