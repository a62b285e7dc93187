/**
 * @file
 * Statistical assertions for channel/attack quality claims.
 *
 * A single-seed expectation like `EXPECT_LT(res.ber, 0.05)` asserts a
 * property of one pseudo-random trajectory: it can pass on a broken
 * channel that got lucky and fail on a healthy one that did not, and
 * every such test silently over-fits its magic seed. The helpers here
 * replace those with claims about the *pooled* error proportion over a
 * seed sweep (>= 16 seeds):
 *
 *   auto sweep = wb::test::sweepSeeds([](std::uint64_t seed) {
 *       cfg.seed = seed;
 *       auto res = chan::runChannel(cfg);
 *       // errors, trials
 *       return wb::test::Proportion{res.ber * payloadBits, payloadBits};
 *   });
 *   EXPECT_BER_BELOW(sweep, 0.05);   // Wilson upper bound < 0.05
 *   EXPECT_BER_ABOVE(sweep, 0.30);   // Wilson lower bound > 0.30
 *   EXPECT_ACCURACY_ABOVE(sweep, 0.95);
 *
 * The bound is checked against the Wilson score interval of the pooled
 * proportion at z = 2.576 (~99% two-sided), so a passing assertion
 * states "the underlying error rate is below/above the bound with high
 * confidence", not "these particular seeds happened to behave".
 */

#ifndef WB_TESTS_STAT_ASSERT_HH
#define WB_TESTS_STAT_ASSERT_HH

#include <cmath>
#include <cstdint>
#include <ostream>

#include <gtest/gtest.h>

#include "sim/sweep_runner.hh"

namespace wb::test
{

/** One run's outcome: error (or success) count over a trial count. */
struct Proportion
{
    double count = 0.0;  //!< errors (BER sweeps) or successes (accuracy)
    double trials = 0.0; //!< bits scored / attack trials
};

/** A two-sided confidence interval on a pooled proportion. */
struct BinomialCi
{
    double mean = 0.0; //!< pooled point estimate
    double lo = 0.0;   //!< lower confidence bound
    double hi = 1.0;   //!< upper confidence bound
};

/** Wilson score interval for @p count successes in @p trials. */
inline BinomialCi
wilsonInterval(double count, double trials, double z = 2.576)
{
    BinomialCi ci;
    if (trials <= 0.0)
        return ci;
    const double p = count / trials;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / trials;
    const double center = (p + z2 / (2.0 * trials)) / denom;
    const double margin =
        (z / denom) *
        std::sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials));
    ci.mean = p;
    ci.lo = std::max(0.0, center - margin);
    ci.hi = std::min(1.0, center + margin);
    return ci;
}

/** Pooled error/trial counts across a multi-seed sweep. */
class ProportionSweep
{
  public:
    /** Minimum seeds a statistical claim may rest on. */
    static constexpr unsigned kMinRuns = 16;

    /** Record one run's outcome. */
    void
    add(const Proportion &p)
    {
        count_ += p.count;
        trials_ += p.trials;
        ++runs_;
    }

    /** Number of runs recorded. */
    unsigned runs() const { return runs_; }

    /** Pooled point estimate. */
    double rate() const { return trials_ > 0.0 ? count_ / trials_ : 0.0; }

    /** Wilson interval of the pooled proportion. */
    BinomialCi ci(double z = 2.576) const
    {
        return wilsonInterval(count_, trials_, z);
    }

    friend std::ostream &
    operator<<(std::ostream &os, const ProportionSweep &s)
    {
        const BinomialCi ci = s.ci();
        return os << s.count_ << "/" << s.trials_ << " over " << s.runs_
                  << " seeds (rate " << ci.mean << ", 99% CI [" << ci.lo
                  << ", " << ci.hi << "])";
    }

  private:
    double count_ = 0.0;
    double trials_ = 0.0;
    unsigned runs_ = 0;
};

/**
 * Run @p fn(seed) for @p n consecutive seeds starting at @p base and
 * pool the returned proportions. @p fn returns a Proportion.
 *
 * Runs are fanned over a SweepRunner thread pool (hardware
 * concurrency) and pooled in seed order, so the sweep's totals are
 * identical at any thread count. @p fn must be shared-nothing:
 * capture configs by value and build the whole simulation inside.
 * Each run calls its own copy of @p fn, so a `mutable` lambda that
 * sets the seed on its captured config races with no other run.
 */
template <typename Fn>
ProportionSweep
sweepSeeds(Fn &&fn, unsigned n = ProportionSweep::kMinRuns,
           std::uint64_t base = 1)
{
    wb::sim::SweepRunner pool;
    const auto results = pool.map<Proportion>(n, [&](std::size_t i) {
        auto run = fn;
        return run(base + i);
    });
    ProportionSweep sweep;
    for (const Proportion &p : results)
        sweep.add(p);
    return sweep;
}

} // namespace wb::test

/**
 * The pooled error rate is below @p bound with high confidence: the
 * Wilson upper bound of the sweep must clear it. Also enforces the
 * >= 16-seed floor so no claim rests on a lucky handful of runs.
 */
#define EXPECT_BER_BELOW(sweep, bound)                                     \
    do {                                                                   \
        const auto &statSweep_ = (sweep);                                  \
        ASSERT_GE(statSweep_.runs(), wb::test::ProportionSweep::kMinRuns)  \
            << "statistical claim on too few seeds";                       \
        EXPECT_LT(statSweep_.ci().hi, (bound)) << statSweep_;              \
    } while (0)

/** The pooled error rate is above @p bound (a closed/broken channel). */
#define EXPECT_BER_ABOVE(sweep, bound)                                     \
    do {                                                                   \
        const auto &statSweep_ = (sweep);                                  \
        ASSERT_GE(statSweep_.runs(), wb::test::ProportionSweep::kMinRuns)  \
            << "statistical claim on too few seeds";                       \
        EXPECT_GT(statSweep_.ci().lo, (bound)) << statSweep_;              \
    } while (0)

/**
 * The pooled success rate (accuracy, recovery rate) is above @p bound
 * with high confidence: the Wilson lower bound must clear it.
 */
#define EXPECT_ACCURACY_ABOVE(sweep, bound)                                \
    do {                                                                   \
        const auto &statSweep_ = (sweep);                                  \
        ASSERT_GE(statSweep_.runs(), wb::test::ProportionSweep::kMinRuns)  \
            << "statistical claim on too few seeds";                       \
        EXPECT_GT(statSweep_.ci().lo, (bound)) << statSweep_;              \
    } while (0)

/** The pooled success rate is below @p bound (a marginal channel). */
#define EXPECT_ACCURACY_BELOW(sweep, bound)                                \
    do {                                                                   \
        const auto &statSweep_ = (sweep);                                  \
        ASSERT_GE(statSweep_.runs(), wb::test::ProportionSweep::kMinRuns)  \
            << "statistical claim on too few seeds";                       \
        EXPECT_LT(statSweep_.ci().hi, (bound)) << statSweep_;              \
    } while (0)

#endif // WB_TESTS_STAT_ASSERT_HH
