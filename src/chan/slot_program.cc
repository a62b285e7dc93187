#include "chan/slot_program.hh"

namespace wb::chan
{

bool
SlotProgram::onSample(double, sim::ProcView &)
{
    return true;
}

std::optional<sim::MemOp>
SlotProgram::next(sim::ProcView &view)
{
    if (halted_)
        return sim::MemOp::halt();
    for (; pos_ < body_.size(); ++pos_) {
        const Step &step = body_[pos_];
        if (step.until == 0 || view.now() < step.until)
            return step.op;
    }
    if (slotsBegun_ == 0)
        return sim::MemOp::tscRead(); // the prologue is done: set Tlast
    return sim::MemOp::spinUntil(tlast_ + period_);
}

void
SlotProgram::onResult(const sim::MemOp &op, const sim::OpResult &res,
                      sim::ProcView &view)
{
    if (pos_ < body_.size()) {
        // A queued op. A hammer op stays current until its deadline.
        if (body_[pos_].until == 0)
            ++pos_;
        if (op.kind == sim::MemOp::Kind::TscRead) {
            if (!sectionOpen_) {
                sectionStart_ = res.tsc;
            } else {
                halted_ = !onSample(static_cast<double>(res.tsc) -
                                        static_cast<double>(sectionStart_),
                                    view);
            }
            sectionOpen_ = !sectionOpen_;
        }
        return;
    }
    // The initial TSC read or the slot's spin: Tlast = TSC.
    tlast_ = res.tsc;
    body_.clear();
    pos_ = 0;
    halted_ = !beginSlot(slotsBegun_++, view);
}

} // namespace wb::chan
