/**
 * @file
 * Many-tenant harness tests (chan/tenant.hh): the default config's
 * platform, a small sweep on the sliced presets end-to-end (discovery
 * through decode), determinism, the unsliced degenerate case, and the
 * forced-collision regime.
 * The full scaling curves live in examples/tenant_scaling.cpp.
 */

#include <gtest/gtest.h>

#include "chan/tenant.hh"
#include "stat_assert.hh"

namespace wb::chan
{
namespace
{

TEST(TenantSweepConfig, DefaultIsItsNamedPreset)
{
    // A default config must be the platform its name claims, not a
    // default HierarchyParams under a sliced-preset label.
    const TenantSweepConfig def;
    TenantSweepConfig named;
    named.usePlatform("dc-sliced-64core");
    EXPECT_EQ(def.platformName, named.platformName);
    EXPECT_EQ(def.cores, named.cores);
    EXPECT_EQ(def.platform.llcSlices, named.platform.llcSlices);
    EXPECT_EQ(def.platform.llc.sizeBytes, named.platform.llc.sizeBytes);
    EXPECT_EQ(def.platform.llc.ways, named.platform.llc.ways);
    EXPECT_EQ(def.platform.llcSlices, 8u);
    EXPECT_EQ(def.platform.llc.sizeBytes, std::size_t(32) << 20);
    EXPECT_EQ(def.platform.llc.ways, 16u);
}

TEST(TenantSweep, OneCoreIsFatal)
{
    TenantSweepConfig cfg;
    cfg.usePlatform("dc-sliced-16core");
    cfg.pairs = 2;
    cfg.cores = 1;
    EXPECT_EXIT(runTenantSweep(cfg), ::testing::ExitedWithCode(1),
                "needs >= 2 cores, got 1");
}

TEST(TenantSweep, SmallSlicedSweepDiscoversAndTransmits)
{
    TenantSweepConfig cfg;
    cfg.usePlatform("dc-sliced-16core");
    cfg.pairs = 8;
    cfg.seed = 5;
    const TenantSweepResult res = runTenantSweep(cfg);

    ASSERT_EQ(res.pairs.size(), 8u);
    // Every pair runs the full pipeline blind; on a quiet socket all
    // of them should come up with verified sets and full sender pools.
    EXPECT_EQ(res.discovered, 8u);
    for (const TenantPairResult &p : res.pairs) {
        EXPECT_NE(p.senderCore, p.receiverCore);
        EXPECT_LT(p.slice, cfg.platform.llcSlices);
        EXPECT_GT(p.discoveryTests, 0u);
        EXPECT_EQ(p.senderLineCount, cfg.d);
    }
    // Non-colliding pairs on an otherwise idle socket decode cleanly.
    EXPECT_LT(res.meanBerClean, 0.05);
    EXPECT_GT(res.aggregateBitsPerSlot, 0.0);
    EXPECT_GT(res.aggregateKbps, 0.0);
    // The signaling phases exercised the directory; a global scan
    // would have probed strictly more private pairs.
    EXPECT_GT(res.coherence.backInvalEvents, 0u);
    EXPECT_LT(res.coherence.privateProbes, res.scanProbeEquivalent);
}

TEST(TenantSweep, IsDeterministicForAConfig)
{
    TenantSweepConfig cfg;
    cfg.usePlatform("dc-sliced-16core");
    cfg.pairs = 6;
    cfg.payloadBits = 48;
    cfg.seed = 11;
    const TenantSweepResult a = runTenantSweep(cfg);
    const TenantSweepResult b = runTenantSweep(cfg);
    ASSERT_EQ(a.pairs.size(), b.pairs.size());
    for (std::size_t i = 0; i < a.pairs.size(); ++i) {
        EXPECT_EQ(a.pairs[i].targetSet, b.pairs[i].targetSet);
        EXPECT_EQ(a.pairs[i].slice, b.pairs[i].slice);
        EXPECT_EQ(a.pairs[i].ber, b.pairs[i].ber);
        EXPECT_EQ(a.pairs[i].discoveryTests, b.pairs[i].discoveryTests);
    }
    EXPECT_EQ(a.meanBer, b.meanBer);
    EXPECT_EQ(a.aggregateBitsPerSlot, b.aggregateBitsPerSlot);
    EXPECT_EQ(a.coherence.privateProbes, b.coherence.privateProbes);
}

TEST(TenantSweep, WorksOnAnUnslicedPreset)
{
    // slices = 1 degenerates the harness to the classic monolithic
    // LLC: every candidate is congruent, discovery is trivial, and
    // the channel must still decode.
    TenantSweepConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.pairs = 2;
    cfg.seed = 3;
    const TenantSweepResult res = runTenantSweep(cfg);
    ASSERT_EQ(res.pairs.size(), 2u);
    EXPECT_EQ(res.discovered, 2u);
    for (const TenantPairResult &p : res.pairs)
        EXPECT_EQ(p.slice, 0u);
    EXPECT_LT(res.meanBerClean, 0.05);
}

TEST(TenantSweep, ForcedCollisionsMarkEveryPair)
{
    // One admissible target set on an unsliced LLC: every pair lands
    // on the same slice-set, so all of them are flagged as colliding
    // and interference is unavoidable.
    TenantSweepConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.pairs = 4;
    cfg.targetSetRange = 1;
    cfg.seed = 9;
    const TenantSweepResult res = runTenantSweep(cfg);
    EXPECT_EQ(res.collidingPairs, 4u);
    for (const TenantPairResult &p : res.pairs)
        EXPECT_TRUE(p.collides);
}

TEST(TenantSweep, CleanPairsDecodeReliablyAcrossSeeds)
{
    // Statistical form of the clean-pair claim: pooled payload BER of
    // non-colliding pairs stays under 5% across >= 16 seeds.
    const auto sweep = test::sweepSeeds([](std::uint64_t seed) {
        TenantSweepConfig cfg;
        cfg.usePlatform("dc-sliced-16core");
        cfg.pairs = 6;
        cfg.payloadBits = 48;
        cfg.seed = seed;
        const TenantSweepResult res = runTenantSweep(cfg);
        double errBits = 0.0, bits = 0.0;
        for (const TenantPairResult &p : res.pairs) {
            if (p.collides)
                continue;
            errBits += p.ber * cfg.payloadBits;
            bits += cfg.payloadBits;
        }
        return test::Proportion{errBits, bits};
    });
    EXPECT_BER_BELOW(sweep, 0.05);
}

} // namespace
} // namespace wb::chan
