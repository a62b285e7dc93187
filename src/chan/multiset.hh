/**
 * @file
 * Multi-set parallel WB channels.
 *
 * The paper reports 1300-4400 kbps *per cache set* and notes that all
 * cache lines in a set can be used equally; nothing stops the parties
 * from agreeing on k disjoint target sets and striping the message
 * across them — k bits per slot. The receiver's slot must fit k timed
 * replacements, so the aggregate rate saturates near
 * k / (k * chase_time) ~ 1 / chase_time regardless of k; this module
 * measures exactly where that ceiling sits on the modeled Xeon.
 */

#ifndef WB_CHAN_MULTISET_HH
#define WB_CHAN_MULTISET_HH

#include "chan/channel.hh"
#include "chan/pointer_chase.hh"

namespace wb::chan
{

/** Multi-set experiment configuration (single core). */
struct MultiSetConfig : sim::RunSpec
{
    MultiSetConfig() : RunSpec(sim::kDefaultPlatform, 1) {}

    Cycles ts = 5500;  //!< slot period
    Cycles tr = 5500;
    unsigned frames = 15;
    unsigned frameBits = 128;
    unsigned d = 4;             //!< dirty lines per 1-bit per set
    unsigned setCount = 4;      //!< k parallel target sets
    unsigned firstSet = 8;      //!< sets used: firstSet + 8*j
    unsigned replacementSize = 10;
    unsigned calMeasurements = 150;
    double cpuGhz = 2.2;

    /** Aggregate channel rate in kbps (k bits per slot). */
    double
    rateKbps() const
    {
        return setCount * cpuGhz * 1e6 / double(ts);
    }

    /** The j-th target set index. */
    unsigned
    targetSet(unsigned j) const
    {
        return (firstSet + 8 * j) % 64;
    }
};

/** Striped sender: slot s, set j carries message bit s*k + j. */
class MultiSetSender : public sim::Program
{
  public:
    /**
     * @param linePools per-set sender line pools
     * @param bits the striped message
     * @param d dirty lines per 1-bit
     * @param ts slot period
     */
    MultiSetSender(std::vector<std::vector<Addr>> linePools,
                   std::vector<bool> bits, unsigned d, Cycles ts);

    std::optional<sim::MemOp> next(sim::ProcView &view) override;
    void onResult(const sim::MemOp &op, const sim::OpResult &res,
                  sim::ProcView &view) override;

  private:
    enum class Phase
    {
        Init,
        Encode,
        Wait,
        Done
    };

    /** Advance setIdx_/storeIdx_ to the next due store, or to Wait. */
    void advance();

    std::vector<std::vector<Addr>> pools_;
    std::vector<bool> bits_;
    unsigned d_;
    Cycles ts_;

    Phase phase_ = Phase::Init;
    std::size_t slotIdx_ = 0;
    unsigned setIdx_ = 0;
    unsigned storeIdx_ = 0;
    Cycles tlast_ = 0;
};

/** Receiver timing k replacements per slot, set-major order. */
class MultiSetReceiver : public sim::Program
{
  public:
    /**
     * @param replA per-set replacement sets A
     * @param replB per-set replacement sets B
     * @param tr slot period
     * @param slots number of slots to record
     */
    MultiSetReceiver(std::vector<std::vector<Addr>> replA,
                     std::vector<std::vector<Addr>> replB, Cycles tr,
                     std::size_t slots);

    std::optional<sim::MemOp> next(sim::ProcView &view) override;
    void onResult(const sim::MemOp &op, const sim::OpResult &res,
                  sim::ProcView &view) override;

    /** Interleaved samples (slot-major, set-minor = message order). */
    const std::vector<double> &samples() const { return samples_; }

    /** True when the receiver's k chases no longer fit the slot. */
    bool overran() const { return overruns_ > slots_ / 10; }

  private:
    enum class Phase
    {
        Warmup,
        InitTsc,
        Wait,
        Measure,
        Done
    };

    void startMeasurement(Rng &rng);

    std::vector<PointerChase> chaseA_;
    std::vector<PointerChase> chaseB_;
    Cycles tr_;
    std::size_t slots_;

    Phase phase_ = Phase::Warmup;
    std::vector<Addr> warmupOrder_;
    std::size_t warmupPos_ = 0;
    unsigned setIdx_ = 0;
    bool useA_ = true;
    std::vector<sim::MemOp> ops_;
    std::size_t opPos_ = 0;
    bool sawFirstTsc_ = false;
    Cycles tscStart_ = 0;
    Cycles tlast_ = 0;
    std::size_t slotsDone_ = 0;
    std::size_t overruns_ = 0;
    std::vector<double> samples_;
};

/** Run the striped multi-set channel end to end. */
ChannelResult runMultiSetChannel(const MultiSetConfig &cfg);

} // namespace wb::chan

#endif // WB_CHAN_MULTISET_HH
