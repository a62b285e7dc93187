/**
 * @file
 * The WB-channel sender (paper Algorithm 1 + sender half of
 * Algorithm 3).
 *
 * Every Ts cycles the sender encodes one symbol by dirtying d lines of
 * the target set (d = 0 means no access at all) with one batched store
 * sweep, then busy-waits for the period boundary and re-bases its
 * period clock on the post-spin timestamp, exactly as Algorithm 3's
 * `while (TSC < Tlast + Ts); Tlast = TSC;` does.
 */

#ifndef WB_CHAN_SENDER_HH
#define WB_CHAN_SENDER_HH

#include <vector>

#include "common/types.hh"
#include "sim/smt_core.hh"

namespace wb::chan
{

/** Sender state machine. */
class SenderProgram : public sim::Program
{
  public:
    /**
     * @param lines sender-owned lines mapping to the target set; at
     *        least max(dSequence) entries
     * @param dSequence dirty-line count per symbol slot, in order
     * @param ts sending period in cycles (Algorithm 3's Ts)
     */
    SenderProgram(std::vector<Addr> lines, std::vector<unsigned> dSequence,
                  Cycles ts);

    std::optional<sim::MemOp> next(sim::ProcView &view) override;
    void onResult(const sim::MemOp &op, const sim::OpResult &res,
                  sim::ProcView &view) override;

    /** True once every symbol has been modulated. */
    bool done() const { return done_; }

    /** Number of symbols modulated so far. */
    std::size_t symbolsSent() const { return symbolIdx_; }

  private:
    enum class Phase
    {
        Init,   //!< read the TSC once to establish Tlast
        Encode, //!< issue the current symbol's batched store sweep
        Wait    //!< spin until Tlast + Ts
    };

    std::vector<Addr> lines_;
    std::vector<unsigned> dSeq_;
    Cycles ts_;

    Phase phase_ = Phase::Init;
    std::size_t symbolIdx_ = 0;
    Cycles tlast_ = 0;
    bool done_ = false;
};

} // namespace wb::chan

#endif // WB_CHAN_SENDER_HH
