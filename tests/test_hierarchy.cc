/**
 * @file
 * Unit tests for the memory hierarchy and latency model
 * (sim/hierarchy.hh). The Table IV calibration is load-bearing for the
 * whole reproduction, so it is pinned here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hh"
#include "sim/hierarchy.hh"

namespace wb::sim
{
namespace
{

/**
 * Deterministic params: Xeon geometry, zero noise, true-LRU L1 so
 * eviction order is exact (replacement-policy variation is covered by
 * test_replacement and test_eviction_probe).
 */
HierarchyParams
quietParams()
{
    HierarchyParams p = xeonE5_2650Params();
    p.lat.noiseSigma = 0.0;
    p.l1.policy = PolicyKind::TrueLru;
    p.l2.policy = PolicyKind::TrueLru;
    return p;
}

Addr
setLine(const Hierarchy &h, unsigned set, Addr tag)
{
    return const_cast<Hierarchy &>(h).l1().layout().compose(set, tag);
}

/** The rounding roundNoise() replaced, kept as its reference. */
Cycles
referenceRoundNoise(double n)
{
    return static_cast<Cycles>(std::lround(std::max(n, 0.0)));
}

TEST(RoundNoise, MatchesLroundAtEdges)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(roundNoise(0.0), 0u);
    EXPECT_EQ(roundNoise(-0.0), 0u);
    // The largest double below 0.5: int64(n + 0.5) rounds it up to 1.
    EXPECT_EQ(roundNoise(0.49999999999999994), 0u);
    EXPECT_EQ(roundNoise(std::nextafter(0.5, 0.0)), 0u);
    EXPECT_EQ(roundNoise(0.5), 1u);
    EXPECT_EQ(roundNoise(-0.5), 0u);
    EXPECT_EQ(roundNoise(std::numeric_limits<double>::denorm_min()), 0u);

    // Every half-integer up to 1e5, its neighbouring doubles, the
    // integers themselves, and all of their negatives.
    std::size_t mismatches = 0;
    auto check = [&](double n) {
        if (roundNoise(n) != referenceRoundNoise(n) && ++mismatches <= 5)
            ADD_FAILURE() << "n = " << n << ": " << roundNoise(n)
                          << " != " << referenceRoundNoise(n);
    };
    for (int k = 0; k <= 100000; ++k) {
        const double half = k + 0.5;
        for (const double n : {half, std::nextafter(half, -inf),
                               std::nextafter(half, inf), double(k)}) {
            check(n);
            check(-n);
        }
    }
    // Large magnitudes, up to where every double is an integer.
    for (const double n : {0x1p52 - 0.5, 0x1p52, 0x1p52 + 1.0, 0x1p53,
                           1e18, 0x1p62}) {
        check(n);
        check(-n);
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(RoundNoise, MatchesLroundOnNoiseDraws)
{
    // The values noise() actually rounds: sigma x a cached deviate, at
    // the presets' 0.6 and at wider sigmas that reach many integers.
    Rng rng(20260);
    std::size_t mismatches = 0;
    for (const double sigma : {0.6, 3.7, 25.0}) {
        for (int i = 0; i < 3400000; ++i) {
            const double n = sigma * rng.gaussianCached();
            if (roundNoise(n) != referenceRoundNoise(n) &&
                ++mismatches <= 5)
                ADD_FAILURE() << "sigma " << sigma << " n = " << n;
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(Hierarchy, Geometry)
{
    HierarchyParams p = xeonE5_2650Params();
    EXPECT_EQ(p.l1.numSets(), 64u); // Table III: 64 sets
    EXPECT_EQ(p.l1.ways, 8u);
    EXPECT_EQ(p.l1.sizeBytes, 32u * 1024u);
}

TEST(Hierarchy, TableIVLatencies)
{
    Hierarchy h(quietParams(), nullptr);
    const Addr a = setLine(h, 5, 1);

    // Cold: DRAM.
    auto cold = h.access(0, a, false);
    EXPECT_EQ(cold.servedBy, Level::Mem);
    EXPECT_GE(cold.latency, 200u);

    // Hot: L1 hit, 4-5 cycles.
    auto hot = h.access(0, a, false);
    EXPECT_EQ(hot.servedBy, Level::L1);
    EXPECT_TRUE(hot.l1Hit);
    EXPECT_GE(hot.latency, 4u);
    EXPECT_LE(hot.latency, 5u);

    // Fill 8 more clean lines: evictions of clean victims are L2-hit
    // timed once the lines are in L2.
    for (Addr t = 2; t <= 9; ++t)
        h.access(0, setLine(h, 5, t), false);
    // `a` was evicted clean; it is in L2 now.
    auto l2hit = h.access(0, a, false);
    EXPECT_EQ(l2hit.servedBy, Level::L2);
    EXPECT_FALSE(l2hit.l1VictimDirty);
    EXPECT_GE(l2hit.latency, 10u); // Table IV: 10-12
    EXPECT_LE(l2hit.latency, 12u);
}

TEST(Hierarchy, DirtyReplacePenalty)
{
    Hierarchy h(quietParams(), nullptr);
    // Fill the set with 8 dirty lines (stores).
    for (Addr t = 1; t <= 8; ++t)
        h.access(0, setLine(h, 7, t), true);
    // Warm a replacement line into L2 then evict it from L1 by... it
    // is simpler to access a fresh line: it comes from DRAM but the
    // victim is dirty.
    auto res = h.access(0, setLine(h, 7, 100), false);
    EXPECT_TRUE(res.l1VictimDirty);

    // Now the canonical Table IV case: line in L2, dirty victim.
    // Line 1 was just written back to L2.
    auto res2 = h.access(0, setLine(h, 7, 1), false);
    EXPECT_EQ(res2.servedBy, Level::L2);
    EXPECT_TRUE(res2.l1VictimDirty);
    EXPECT_GE(res2.latency, 21u); // Table IV: 22-23 = l2Hit + penalty
    EXPECT_LE(res2.latency, 23u);
}

TEST(Hierarchy, WritebackReachesL2Dirty)
{
    Hierarchy h(quietParams(), nullptr);
    const Addr dirty = setLine(h, 3, 1);
    h.access(0, dirty, true);
    EXPECT_TRUE(h.l1().isDirty(dirty));
    // Evict it with 8 clean fills.
    for (Addr t = 10; t < 18; ++t)
        h.access(0, setLine(h, 3, t), false);
    EXPECT_FALSE(h.l1().contains(dirty));
    EXPECT_TRUE(h.l2().contains(dirty));
    EXPECT_TRUE(h.l2().isDirty(dirty));
}

TEST(Hierarchy, StoreVisibleLatencyHidesMissCost)
{
    Hierarchy h(quietParams(), nullptr);
    const Addr a = setLine(h, 9, 1);
    auto res = h.access(0, a, true); // cold store
    // Store buffer: small visible latency despite the DRAM fill.
    EXPECT_LE(res.latency, quietParams().lat.storeVisibleLatency + 1);
    EXPECT_TRUE(h.l1().isDirty(a));
}

TEST(Hierarchy, StoreFullLatencyWhenDisabled)
{
    auto p = quietParams();
    p.lat.storeVisibleLatency = 0;
    Hierarchy h(p, nullptr);
    auto res = h.access(0, setLine(h, 9, 1), true);
    EXPECT_GE(res.latency, p.lat.mem);
}

TEST(Hierarchy, WriteThroughStoresReachL2)
{
    auto p = quietParams();
    p.l1.writePolicy = WritePolicy::WriteThrough;
    Hierarchy h(p, nullptr);
    const Addr a = setLine(h, 4, 1);
    h.access(0, a, false); // load it in
    auto res = h.access(0, a, true); // store hit
    EXPECT_TRUE(res.l1Hit);
    EXPECT_FALSE(h.l1().isDirty(a)); // never dirty
    EXPECT_TRUE(h.l2().contains(a)); // forwarded
    EXPECT_TRUE(h.l2().isDirty(a));
    EXPECT_GE(res.latency, p.lat.l1Hit + p.lat.writeThroughStore);
}

TEST(Hierarchy, NoWriteAllocate)
{
    auto p = quietParams();
    p.l1.allocPolicy = AllocPolicy::NoWriteAllocate;
    Hierarchy h(p, nullptr);
    const Addr a = setLine(h, 4, 1);
    h.access(0, a, true); // store miss: must not allocate in L1
    EXPECT_FALSE(h.l1().contains(a));
    EXPECT_TRUE(h.l2().contains(a));
}

TEST(Hierarchy, FlushDropsAllLevelsAndCosts)
{
    auto p = quietParams();
    Hierarchy h(p, nullptr);
    const Addr a = setLine(h, 11, 1);

    // Absent: base cost.
    const Cycles absent = h.flush(0, a);
    EXPECT_EQ(absent, p.lat.flushBase);

    // Present clean.
    h.access(0, a, false);
    const Cycles clean = h.flush(0, a);
    EXPECT_EQ(clean, p.lat.flushBase + p.lat.flushPresentExtra);
    EXPECT_FALSE(h.l1().contains(a));
    EXPECT_FALSE(h.l2().contains(a));
    EXPECT_FALSE(h.llc().contains(a));

    // Present dirty.
    h.access(0, a, true);
    const Cycles dirty = h.flush(0, a);
    EXPECT_EQ(dirty, p.lat.flushBase + p.lat.flushPresentExtra +
                         p.lat.flushDirtyExtra);
}

TEST(Hierarchy, CountersPerThread)
{
    Hierarchy h(quietParams(), nullptr);
    const Addr a = setLine(h, 2, 1);
    h.access(0, a, false);
    h.access(0, a, false);
    h.access(1, a, true);
    const auto &c0 = h.counters(0);
    const auto &c1 = h.counters(1);
    EXPECT_EQ(c0.loads, 2u);
    EXPECT_EQ(c0.stores, 0u);
    EXPECT_EQ(c0.l1Misses, 1u);
    EXPECT_EQ(c0.l1Hits, 1u);
    EXPECT_EQ(c1.stores, 1u);
    EXPECT_EQ(c1.l1Hits, 1u);

    auto total = h.totalCounters();
    EXPECT_EQ(total.loads, 2u);
    EXPECT_EQ(total.stores, 1u);
}

TEST(Hierarchy, MissRates)
{
    PerfCounters c;
    c.loads = 90;
    c.stores = 10;
    c.l1Misses = 5;
    c.l2Accesses = 5;
    c.l2Misses = 2;
    c.spinLoads = 100;
    EXPECT_DOUBLE_EQ(c.l1MissRate(), 0.05);
    EXPECT_DOUBLE_EQ(c.l1MissRateWithSpin(), 5.0 / 200.0);
    EXPECT_DOUBLE_EQ(c.l2MissRate(), 0.4);
    EXPECT_DOUBLE_EQ(c.llcMissRate(), 0.0);
}

TEST(Hierarchy, RandomFillSkipsDemandLine)
{
    auto p = quietParams();
    p.randomFillWindow = 16;
    Rng rng(3);
    Hierarchy h(p, &rng);
    const Addr a = setLine(h, 6, 5);
    h.access(0, a, false);
    EXPECT_FALSE(h.l1().contains(a)); // defense: no demand fill
    EXPECT_TRUE(h.l2().contains(a));  // data still came through L2
    // Repeated loads keep missing L1.
    auto res = h.access(0, a, false);
    EXPECT_FALSE(res.l1Hit);
}

TEST(Hierarchy, PrefetchGuardInjects)
{
    auto p = quietParams();
    p.prefetchGuardProb = 1.0;
    Rng rng(3);
    Hierarchy h(p, &rng);
    const unsigned set = 6;
    h.access(0, setLine(h, set, 5), false);
    // The demand line plus at least one injected line.
    EXPECT_GE(h.l1().validCountInSet(set), 2u);
}

TEST(Hierarchy, InjectCleanFill)
{
    Hierarchy h(quietParams(), nullptr);
    const Addr a = setLine(h, 6, 5);
    h.injectCleanFill(a);
    EXPECT_TRUE(h.l1().contains(a));
    EXPECT_FALSE(h.l1().isDirty(a));
    // Injection does not touch demand counters.
    EXPECT_EQ(h.totalCounters().loads, 0u);
}

TEST(Hierarchy, ResetKeepsCounters)
{
    Hierarchy h(quietParams(), nullptr);
    const Addr a = setLine(h, 2, 1);
    h.access(0, a, false);
    h.reset();
    EXPECT_FALSE(h.l1().contains(a));
    EXPECT_EQ(h.counters(0).loads, 1u);
    h.resetCounters();
    EXPECT_EQ(h.counters(0).loads, 0u);
}

TEST(Hierarchy, ResetAllZeroesStateAndCounters)
{
    Hierarchy h(quietParams(), nullptr);
    const Addr a = setLine(h, 2, 1);
    h.access(0, a, true);
    ASSERT_GT(h.counters(0).stores, 0u);
    h.resetAll();
    EXPECT_FALSE(h.l1().contains(a));
    EXPECT_FALSE(h.l2().contains(a));
    EXPECT_EQ(h.counters(0).stores, 0u);
    EXPECT_EQ(h.totalCounters().l1Misses, 0u);
}

TEST(Hierarchy, LevelNames)
{
    EXPECT_EQ(levelName(Level::L1), "L1");
    EXPECT_EQ(levelName(Level::L2), "L2");
    EXPECT_EQ(levelName(Level::LLC), "LLC");
    EXPECT_EQ(levelName(Level::Mem), "Mem");
}

/**
 * Property: after any mix of loads and stores, a line reported dirty
 * by L1 must be in a write-back cache, and evicting it must surface
 * as l1VictimDirty on the access that triggered the eviction.
 */
class HierarchyDirtyProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HierarchyDirtyProperty, DirtyEvictionsAlwaysReported)
{
    Rng rng(GetParam());
    auto p = quietParams();
    Hierarchy h(p, &rng);
    const unsigned set = GetParam() % 64;
    unsigned reported = 0;
    unsigned expected = 0;
    for (int i = 0; i < 400; ++i) {
        const Addr tag = 1 + rng.below(12);
        const bool isWrite = rng.chance(0.4);
        const Addr a = setLine(h, set, tag);
        const unsigned dirtyBefore = h.l1().dirtyCountInSet(set);
        const bool present = h.l1().contains(a);
        auto res = h.access(0, a, isWrite);
        const unsigned dirtyAfter = h.l1().dirtyCountInSet(set);
        if (res.l1VictimDirty)
            ++reported;
        // A dirty count that dropped (without this access being a
        // hit) implies a dirty eviction happened.
        if (!present && dirtyAfter < dirtyBefore + (isWrite ? 1u : 0u) &&
            dirtyBefore > 0)
            ++expected;
    }
    // Every externally visible dirty-count drop was reported.
    EXPECT_GE(reported, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyDirtyProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

} // namespace
} // namespace wb::sim
