/**
 * @file
 * The WB-channel receiver (paper Algorithm 2 + receiver half of
 * Algorithm 3).
 *
 * Every Tr cycles the receiver times one pointer-chased traversal of a
 * replacement set. Replacing the target set both measures the number of
 * dirty lines the sender left there (each costs the dirty-victim
 * write-back penalty) and re-initializes the set with clean lines, so
 * no separate initialization phase is needed. Two replacement sets are
 * used alternately so the lines being timed always come from L2, not
 * from the L1 they were left in by the previous measurement. The
 * pacing (`while (TSC < Tlast + Tr); Tlast = TSC;`) is
 * chan::SlotProgram's; the first slot only sets the pace, and every
 * later slot holds one timed measurement.
 */

#ifndef WB_CHAN_RECEIVER_HH
#define WB_CHAN_RECEIVER_HH

#include <vector>

#include "chan/pointer_chase.hh"
#include "chan/slot_program.hh"
#include "common/types.hh"

namespace wb::chan
{

/** One recorded observation. */
struct Observation
{
    double latency = 0.0; //!< measured traversal latency (cycles)
    Cycles at = 0;        //!< receiver virtual time of the measurement
};

/**
 * A timed section's reading as a receiver records it: @p cycles plus
 * the platform's per-measurement Gaussian noise at sampling period
 * @p tr (one draw from the run Rng when that noise is on).
 */
double measuredLatency(double cycles, Cycles tr, sim::ProcView &view);

/** The WB receiver: one timed replacement-set chase per slot. */
class ReceiverProgram : public SlotProgram
{
  public:
    /**
     * @param replacementA replacement set A (line addresses)
     * @param replacementB replacement set B, address-disjoint from A
     * @param tr sampling period in cycles (Algorithm 3's Tr)
     * @param sampleCount observations to record before halting
     * @param warmupSweeps untimed sweeps of both sets at startup (warms
     *        L2 and performs the paper's initialization phase)
     */
    ReceiverProgram(std::vector<Addr> replacementA,
                    std::vector<Addr> replacementB, Cycles tr,
                    std::size_t sampleCount, unsigned warmupSweeps = 2);

    /** The recorded observations (valid after the run). */
    const std::vector<Observation> &observations() const { return obs_; }

    /** Just the latencies, for classification. */
    std::vector<double> latencies() const;

    /** True once sampleCount observations were recorded. */
    bool done() const { return obs_.size() >= sampleCount_; }

  protected:
    /**
     * Queue one slot's timed section over @p chase, the replacement
     * set whose turn it is (Algorithm 2 alternates A and B): a
     * re-randomized chase, preceded by a dither delay under a coarse
     * timer.
     */
    virtual void queueMeasurement(PointerChase &chase, sim::ProcView &view);

  private:
    bool beginSlot(std::size_t slot, sim::ProcView &view) override;
    bool onSample(double cycles, sim::ProcView &view) override;

    PointerChase chaseA_;
    PointerChase chaseB_;
    std::size_t sampleCount_;
    std::vector<Addr> warmupOrder_; //!< the prologue's batched sweeps
    bool useA_ = true;
    std::vector<Observation> obs_;
};

} // namespace wb::chan

#endif // WB_CHAN_RECEIVER_HH
