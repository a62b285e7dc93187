/**
 * @file
 * The slot-pacing loop every channel party runs (paper Algorithm 3).
 *
 * A sender, receiver or noise process reads the TSC once to set
 * Tlast, then, once per period T: does the slot's work, spins until
 * Tlast + T and re-bases Tlast on the post-spin TSC
 * (`while (TSC < Tlast + T); Tlast = TSC;`). SlotProgram owns that
 * loop; a party only says what each slot's work is.
 *
 * Op order:
 *
 *  - the prologue: ops push()ed before the first slot (the
 *    constructor's untimed warm-up sweeps);
 *  - one TscRead, which sets Tlast and begins slot 0;
 *  - per slot, the body beginSlot() queued, then
 *    SpinUntil(Tlast + period), whose post-spin TSC is the next Tlast
 *    and begins the next slot. An empty body goes straight to the
 *    spin; a Halt op in a body ends the program mid-slot.
 *
 * Timed sections: the TscRead ops of a body pair up, and each closing
 * read hands the cycles elapsed since its opening read to onSample().
 *
 * Both hooks run inside onResult() of the op that triggers them (the
 * Tlast-setting read or spin, the closing TscRead), never inside
 * next(): the per-core Rng is shared by every thread on the core, so
 * a party's draws must land at exactly this point of the run's draw
 * sequence. Per op, next() and onResult() only walk the queued body;
 * the virtual hooks run once per slot or timed section.
 */

#ifndef WB_CHAN_SLOT_PROGRAM_HH
#define WB_CHAN_SLOT_PROGRAM_HH

#include <vector>

#include "common/types.hh"
#include "sim/smt_core.hh"

namespace wb::chan
{

/** A Program paced in slots of a fixed period (Algorithm 3). */
class SlotProgram : public sim::Program
{
  public:
    SlotProgram(const SlotProgram &) = delete;
    SlotProgram &operator=(const SlotProgram &) = delete;

    std::optional<sim::MemOp> next(sim::ProcView &view) final;
    void onResult(const sim::MemOp &op, const sim::OpResult &res,
                  sim::ProcView &view) final;

  protected:
    /** @param period the slot length in cycles (Algorithm 3's Ts/Tr) */
    explicit SlotProgram(Cycles period) : period_(period) {}

    /**
     * Slot @p slot begins: Tlast was just set (by the initial TSC read
     * for slot 0, by the previous slot's spin after that). Queue the
     * slot's body with push()/pushUntil()/pushTimed().
     * @return false to halt now
     */
    virtual bool beginSlot(std::size_t slot, sim::ProcView &view) = 0;

    /**
     * A timed section of the body closed, @p cycles after its opening
     * TscRead (signed: a jittered timer may read backwards). May queue
     * more ops. The default records nothing.
     * @return false to halt now, dropping the rest of the body
     */
    virtual bool onSample(double cycles, sim::ProcView &view);

    /** Queue @p op (into the prologue before the first slot). */
    void push(const sim::MemOp &op) { body_.push_back({op, 0}); }

    /**
     * Queue @p op, re-issued while the thread's clock is below
     * @p deadline (a hammer loop); it is skipped when the clock
     * already passed it.
     */
    void
    pushUntil(const sim::MemOp &op, Cycles deadline)
    {
        if (deadline > 0) // 0 has always passed (and marks a one-shot)
            body_.push_back({op, deadline});
    }

    /** Queue one timed section: TscRead, @p op, TscRead. */
    void
    pushTimed(const sim::MemOp &op)
    {
        push(sim::MemOp::tscRead());
        push(op);
        push(sim::MemOp::tscRead());
    }

    /** The current slot's Tlast (post-spin TSC). */
    Cycles tlast() const { return tlast_; }

    /** The slot period. */
    Cycles period() const { return period_; }

  private:
    /** One queued op. */
    struct Step
    {
        sim::MemOp op;
        Cycles until; //!< re-issue while now < until; 0 = issue once
    };

    Cycles period_;
    Cycles tlast_ = 0;
    std::size_t slotsBegun_ = 0;

    /** The prologue, then the current slot's body (reused storage). */
    std::vector<Step> body_;
    std::size_t pos_ = 0; //!< next queued op

    bool sectionOpen_ = false; //!< an opening TscRead awaits its pair
    Cycles sectionStart_ = 0;
    bool halted_ = false;
};

} // namespace wb::chan

#endif // WB_CHAN_SLOT_PROGRAM_HH
