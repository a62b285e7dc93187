/**
 * @file
 * The WB channel deployed on the L2 cache (paper Sec. III: "The WB
 * time channel can be deployed not only on the L1 cache but also on
 * other cache levels. However, this requires more operations from the
 * sender." — the paper states this but never evaluates it; this module
 * does).
 *
 * Mechanics: the parties agree on an L2 *set*. Because the L1 index
 * bits are a subset of the L2 index bits, every line of one L2 set
 * also maps to one L1 set, so:
 *
 *  - the sender cannot just store (that only dirties L1): after
 *    writing each line it sweeps "pusher" lines that share the L1 set
 *    but live in *other* L2 sets, evicting its dirty line from L1 so
 *    the write-back lands in the target L2 set — the extra sender
 *    work the paper predicted;
 *  - the receiver times a pointer-chased replacement of the L2 set
 *    (two alternating replacement sets, as at L1). Each traversal load
 *    misses L1 and L2 and is served by the LLC; an L2 fill that evicts
 *    a dirty L2 victim pays the L2 write-back penalty, which is the
 *    signal.
 */

#ifndef WB_CHAN_L2_CHANNEL_HH
#define WB_CHAN_L2_CHANNEL_HH

#include "chan/channel.hh"

namespace wb::chan
{

/** L2-channel experiment configuration (single core). */
struct L2ChannelConfig : sim::RunSpec
{
    L2ChannelConfig() : RunSpec(sim::kDefaultPlatform, 1) {}

    Cycles ts = 30000;   //!< slots are longer: encode costs more
    Cycles tr = 30000;
    unsigned frames = 20;
    unsigned frameBits = 128;
    unsigned d = 4;              //!< dirty L2 lines per 1-bit
    unsigned targetL2Set = 137;  //!< agreed L2 set
    unsigned replacementSize = 12; //!< receiver lines per probe
    unsigned pusherLines = 10;   //!< L1-eviction sweep size
    unsigned calMeasurements = 150;
    double cpuGhz = 2.2;

    /** Channel rate in kbps. */
    double rateKbps() const { return cpuGhz * 1e6 / double(ts); }
};

/**
 * Sender for the L2 channel: per 1-bit, writes d target-set lines and
 * evicts each from L1 through the pusher sweep.
 */
class L2SenderProgram : public sim::Program
{
  public:
    /**
     * @param lines sender lines mapping to the target L2 set
     * @param pushers lines sharing the L1 set but in other L2 sets
     * @param bits bit sequence (binary encoding)
     * @param d dirty lines per 1-bit
     * @param ts slot period
     */
    L2SenderProgram(std::vector<Addr> lines, std::vector<Addr> pushers,
                    std::vector<bool> bits, unsigned d, Cycles ts);

    std::optional<sim::MemOp> next(sim::ProcView &view) override;
    void onResult(const sim::MemOp &op, const sim::OpResult &res,
                  sim::ProcView &view) override;

    /** True once every bit was modulated. */
    bool done() const { return done_; }

  private:
    enum class Phase
    {
        Init,
        Store, //!< dirty the next target line in L1
        Push,  //!< sweep pushers to force the write-back into L2
        Wait
    };

    std::vector<Addr> lines_;
    std::vector<Addr> pushers_;
    std::vector<bool> bits_;
    unsigned d_;
    Cycles ts_;

    Phase phase_ = Phase::Init;
    std::size_t bitIdx_ = 0;
    unsigned lineIdx_ = 0;
    unsigned pushIdx_ = 0;
    Cycles tlast_ = 0;
    bool done_ = false;
};

/** Result bundle (same shape as the L1 channel's). */
using L2ChannelResult = ChannelResult;

/** Run the L2-level covert channel end to end. */
L2ChannelResult runL2Channel(const L2ChannelConfig &cfg);

/**
 * Helper: lines mapping to a given L2 set (they also share one L1
 * set), and pusher lines for that L1 set in other L2 sets.
 */
struct L2Sets
{
    std::vector<Addr> senderLines;
    std::vector<Addr> pushers;
    std::vector<Addr> replacementA;
    std::vector<Addr> replacementB;
};

/** Build the L2-channel line pools. */
L2Sets makeL2Sets(const sim::AddressLayout &l1Layout,
                  const sim::AddressLayout &l2Layout, unsigned targetL2Set,
                  unsigned senderCount, unsigned pusherCount,
                  unsigned replacementSize);

} // namespace wb::chan

#endif // WB_CHAN_L2_CHANNEL_HH
