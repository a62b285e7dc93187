/**
 * @file
 * The defense suite of paper Sec. VIII, expressed as transformations of
 * a channel configuration plus an evaluation harness that reruns the
 * covert channel under each defense and reports residual BER/goodput.
 *
 * Paper verdicts to reproduce:
 *  - effective: write-through L1, PLcache (locked dirty lines),
 *    DAWG-style isolation, random-fill cache, strong NoMo partitions,
 *    coarse fuzzy time
 *  - NOT effective: Prefetch-guard noise injection (clean lines),
 *    random replacement (Sec. VI-A: use d=3, L=12), weak partitions,
 *    fine-grained fuzzy time
 */

#ifndef WB_DEFENSE_DEFENSE_HH
#define WB_DEFENSE_DEFENSE_HH

#include <string>
#include <vector>

#include "chan/channel.hh"

namespace wb::defense
{

/** Implemented defenses. */
enum class DefenseKind
{
    None,              //!< undefended baseline
    WriteThrough,      //!< L1 write-through: no dirty bits at all
    RandomFill,        //!< Liu & Lee random fill cache (param: window)
    PlCache,           //!< lock dirty lines (param unused)
    NoMo,              //!< static way reservation (param: reserved ways)
    Dawg,              //!< full way isolation incl. probe isolation
    PrefetchGuard,     //!< clean-noise injection (param: prob x 100)
    FuzzyTime,         //!< coarse timestamps (param: granularity)
    RandomReplacement  //!< random policy (param unused)
};

/** A defense with its strength parameter. */
struct DefenseSpec
{
    DefenseKind kind = DefenseKind::None;

    /**
     * Strength knob, meaning depends on kind: RandomFill window in
     * lines; NoMo/Dawg reserved ways per thread; PrefetchGuard
     * probability in percent; FuzzyTime TSC granularity in cycles.
     */
    unsigned param = 0;
};

/** Human-readable name including the parameter. */
std::string defenseName(const DefenseSpec &spec);

/**
 * Return a copy of @p base reconfigured with the defense applied.
 * The sender is thread 0 and the receiver thread 1, matching
 * chan::runChannel's thread layout (partitioning defenses rely on it).
 */
chan::ChannelConfig applyDefense(const chan::ChannelConfig &base,
                                 const DefenseSpec &spec);

/** Evaluation outcome for one defense. */
struct DefenseEval
{
    DefenseSpec spec;
    chan::ChannelResult result;

    /**
     * Residual latency signal: calibrated median gap between d = 0 and
     * the encoding's top level, in cycles. ~0 means the defense removed
     * the physical signal, not just degraded decoding.
     */
    double signalGap = 0.0;
};

/** Run the channel under each spec (plus the undefended baseline). */
std::vector<DefenseEval>
evaluateDefenses(const chan::ChannelConfig &base,
                 const std::vector<DefenseSpec> &specs);

/** The paper's default evaluation set (Sec. VIII). */
std::vector<DefenseSpec> standardDefenseSpecs();

} // namespace wb::defense

#endif // WB_DEFENSE_DEFENSE_HH
