#include "defense/defense.hh"

#include <sstream>

#include "common/log.hh"

namespace wb::defense
{

namespace
{

std::string
kindName(DefenseKind kind)
{
    switch (kind) {
      case DefenseKind::None:
        return "none";
      case DefenseKind::WriteThrough:
        return "write-through";
      case DefenseKind::RandomFill:
        return "random-fill";
      case DefenseKind::PlCache:
        return "PLcache";
      case DefenseKind::NoMo:
        return "NoMo";
      case DefenseKind::Dawg:
        return "DAWG";
      case DefenseKind::PrefetchGuard:
        return "Prefetch-guard";
      case DefenseKind::FuzzyTime:
        return "fuzzy-time";
      case DefenseKind::RandomReplacement:
        return "random-replacement";
    }
    return "?";
}

} // namespace

std::string
defenseName(const DefenseSpec &spec)
{
    std::ostringstream os;
    os << kindName(spec.kind);
    if (spec.param != 0)
        os << "(" << spec.param << ")";
    return os.str();
}

chan::ChannelConfig
applyDefense(const chan::ChannelConfig &base, const DefenseSpec &spec)
{
    chan::ChannelConfig cfg = base;
    const unsigned ways = cfg.platform.l1.ways;
    switch (spec.kind) {
      case DefenseKind::None:
        break;
      case DefenseKind::WriteThrough:
        cfg.platform.l1.writePolicy = sim::WritePolicy::WriteThrough;
        break;
      case DefenseKind::RandomFill:
        cfg.platform.randomFillWindow = spec.param ? spec.param : 64;
        break;
      case DefenseKind::PlCache:
        cfg.platform.l1.lockOnWrite = true;
        break;
      case DefenseKind::NoMo: {
        // Reserve `param` ways for each of the two hardware threads;
        // the rest stay shared. Thread 0 is the sender.
        const unsigned r = std::min(spec.param ? spec.param : 2,
                                    ways / 2);
        const std::uint32_t shared = sim::wayMaskRange(2 * r, ways);
        cfg.platform.l1.fillMaskPerThread = {
            sim::wayMaskRange(0, r) | shared,      // sender
            sim::wayMaskRange(r, 2 * r) | shared,  // receiver
        };
        break;
      }
      case DefenseKind::Dawg: {
        // Full isolation: split the ways in half, isolate probes too.
        const unsigned half = ways / 2;
        cfg.platform.l1.fillMaskPerThread = {
            sim::wayMaskRange(0, half),
            sim::wayMaskRange(half, ways),
        };
        cfg.platform.l1.probeIsolated = true;
        break;
      }
      case DefenseKind::PrefetchGuard:
        cfg.platform.prefetchGuardProb =
            (spec.param ? spec.param : 30) / 100.0;
        break;
      case DefenseKind::FuzzyTime:
        cfg.noise.tscGranularity = spec.param ? spec.param : 64;
        break;
      case DefenseKind::RandomReplacement:
        cfg.platform.l1.policy = sim::PolicyKind::RandomIid;
        break;
    }
    return cfg;
}

std::vector<DefenseEval>
evaluateDefenses(const chan::ChannelConfig &base,
                 const std::vector<DefenseSpec> &specs)
{
    std::vector<DefenseEval> evals;
    evals.reserve(specs.size() + 1);

    std::vector<DefenseSpec> all;
    all.push_back({DefenseKind::None, 0});
    all.insert(all.end(), specs.begin(), specs.end());

    for (const auto &spec : all) {
        DefenseEval ev;
        ev.spec = spec;
        ev.result = chan::runChannel(applyDefense(base, spec));
        const auto &medians = ev.result.calibrationMedians;
        const unsigned top = base.protocol.encoding.maxLevel();
        if (top < medians.size())
            ev.signalGap = medians[top] - medians[0];
        evals.push_back(std::move(ev));
    }
    return evals;
}

std::vector<DefenseSpec>
standardDefenseSpecs()
{
    return {
        {DefenseKind::WriteThrough, 0},
        {DefenseKind::RandomFill, 64},
        {DefenseKind::PlCache, 0},
        {DefenseKind::NoMo, 2},
        {DefenseKind::NoMo, 4},
        {DefenseKind::Dawg, 0},
        {DefenseKind::PrefetchGuard, 30},
        {DefenseKind::FuzzyTime, 16},
        {DefenseKind::FuzzyTime, 128},
        {DefenseKind::RandomReplacement, 0},
    };
}

} // namespace wb::defense
