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
 * from the L1 they were left in by the previous measurement.
 */

#ifndef WB_CHAN_RECEIVER_HH
#define WB_CHAN_RECEIVER_HH

#include <vector>

#include "common/types.hh"
#include "chan/pointer_chase.hh"
#include "sim/smt_core.hh"

namespace wb::chan
{

/** One recorded observation. */
struct Observation
{
    double latency = 0.0; //!< measured traversal latency (cycles)
    Cycles at = 0;        //!< receiver virtual time of the measurement
};

/** Receiver state machine. */
class ReceiverProgram : public sim::Program
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

    std::optional<sim::MemOp> next(sim::ProcView &view) override;
    void onResult(const sim::MemOp &op, const sim::OpResult &res,
                  sim::ProcView &view) override;

    /** The recorded observations (valid after the run). */
    const std::vector<Observation> &observations() const { return obs_; }

    /** Just the latencies, for classification. */
    std::vector<double> latencies() const;

    /** True once sampleCount observations were recorded. */
    bool done() const { return done_; }

  private:
    enum class Phase
    {
        Warmup,  //!< untimed batched sweeps of A and B
        Init,    //!< read TSC once to establish Tlast
        Wait,    //!< spin until Tlast + Tr
        Measure, //!< TscRead, batched chase sweep, TscRead
        Done     //!< sampleCount observations recorded
    };

    /** Begin a measurement over the current replacement set. */
    void startMeasurement(Rng &rng);

    PointerChase chaseA_;
    PointerChase chaseB_;
    Cycles tr_;
    std::size_t sampleCount_;
    unsigned warmupSweeps_;

    Phase phase_ = Phase::Warmup;
    bool useA_ = true; //!< Algorithm 2: alternate replacement sets
    bool warmupDone_ = false;
    std::vector<Addr> warmupOrder_;

    std::vector<sim::MemOp> measureOps_;
    std::size_t measurePos_ = 0;
    Cycles tscStart_ = 0;
    bool sawFirstTsc_ = false;

    Cycles tlast_ = 0;
    std::vector<Observation> obs_;
    bool done_ = false;

    /**
     * Effective timer granule when the observer is coarse (1 = legacy
     * cycle-accurate, no dither). Refreshed from the noise model at
     * each slot boundary; startMeasurement prepends a uniform dither
     * delay in [0, granule) when > 1.
     */
    Cycles ditherGranule_ = 1;
};

} // namespace wb::chan

#endif // WB_CHAN_RECEIVER_HH
