/**
 * @file
 * The WB-channel sender (paper Algorithm 1 + sender half of
 * Algorithm 3).
 *
 * Every Ts cycles the sender encodes one symbol by dirtying d lines of
 * the target set (d = 0 means no access at all) with one batched store
 * sweep, then busy-waits for the period boundary and re-bases its
 * period clock on the post-spin timestamp, exactly as Algorithm 3's
 * `while (TSC < Tlast + Ts); Tlast = TSC;` does (chan::SlotProgram).
 */

#ifndef WB_CHAN_SENDER_HH
#define WB_CHAN_SENDER_HH

#include <vector>

#include "chan/slot_program.hh"
#include "common/types.hh"

namespace wb::chan
{

/** The WB sender: slot s carries symbol s as d dirty lines. */
class SenderProgram : public SlotProgram
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

    /** True once every symbol has been modulated. */
    bool done() const { return symbolIdx_ >= dSeq_.size(); }

    /** Number of symbols modulated so far. */
    std::size_t symbolsSent() const { return symbolIdx_; }

  private:
    bool beginSlot(std::size_t slot, sim::ProcView &view) override;

    std::vector<Addr> lines_;
    std::vector<unsigned> dSeq_;
    std::size_t symbolIdx_ = 0;
};

} // namespace wb::chan

#endif // WB_CHAN_SENDER_HH
