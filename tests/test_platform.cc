/**
 * @file
 * Platform registry tests (sim/platform.hh): preset lookup, the
 * behavioral contract of each shipped scenario, runtime registration,
 * and the config-struct plumbing that selects a platform by string.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/framework.hh"
#include "chan/channel.hh"
#include "chan/cross_core.hh"
#include "chan/l2_channel.hh"
#include "chan/multiset.hh"
#include "chan/tenant.hh"
#include "common/rng.hh"
#include "sidechan/attack.hh"
#include "sim/hierarchy.hh"
#include "sim/multicore.hh"
#include "sim/platform.hh"

namespace wb::sim
{
namespace
{

TEST(Platform, ShipsTheDocumentedPresets)
{
    const auto names = platformNames();
    ASSERT_GE(names.size(), 9u);
    for (const char *expected :
         {"xeonE5-2650", "cortexA53-wt", "desktop-inclusive",
          "xeonE5-2650-dawg", "xeonE5-2650-2core",
          "desktop-inclusive-4core", "dc-sliced-16core",
          "dc-sliced-32core", "dc-sliced-64core"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
    }
    EXPECT_EQ(names.front(), kDefaultPlatform);
}

TEST(Platform, MultiCorePresetsDeclareTheirTopology)
{
    EXPECT_EQ(platform(kDefaultPlatform).cores, 1u);
    const Platform &xeon2 = platform("xeonE5-2650-2core");
    EXPECT_EQ(xeon2.cores, 2u);
    EXPECT_FALSE(xeon2.params.inclusiveLlc); // the Xeon stays exclusive
    const Platform &desk4 = platform("desktop-inclusive-4core");
    EXPECT_EQ(desk4.cores, 4u);
    EXPECT_TRUE(desk4.params.inclusiveLlc);
}

TEST(Platform, DcSlicedPresetsDeclareSlicedTopology)
{
    const struct
    {
        const char *name;
        unsigned cores;
    } presets[] = {{"dc-sliced-16core", 16},
                   {"dc-sliced-32core", 32},
                   {"dc-sliced-64core", 64}};
    for (const auto &spec : presets) {
        const Platform &p = platform(spec.name);
        EXPECT_EQ(p.cores, spec.cores) << spec.name;
        EXPECT_EQ(p.params.llcSlices, 8u) << spec.name;
        EXPECT_TRUE(p.params.inclusiveLlc) << spec.name;
        // The sliced presets must be standable as MultiCoreSystems —
        // the sweep-skip helper should have nothing to complain about.
        EXPECT_EQ(multiCoreIncapableReason(p.params), nullptr)
            << spec.name;
        // Aggregate sets divide evenly over the eight slices.
        EXPECT_EQ(p.params.llc.numSets() % p.params.llcSlices, 0u)
            << spec.name;
    }
}

TEST(Platform, DefaultIsThePaperXeon)
{
    const Platform &p = platform(kDefaultPlatform);
    EXPECT_EQ(p.params.l1.numSets(), 64u); // Table III
    EXPECT_EQ(p.params.l1.ways, 8u);
    EXPECT_EQ(p.params.lat.l1Hit, 4u); // Table IV
    EXPECT_EQ(p.params.lat.l2Hit, 10u);
    EXPECT_FALSE(p.params.inclusiveLlc);
    EXPECT_FALSE(p.description.empty());
}

TEST(Platform, LookupIsFatalOnUnknownName)
{
    EXPECT_EQ(findPlatform("no-such-machine"), nullptr);
    EXPECT_EXIT((void)platform("no-such-machine"),
                ::testing::ExitedWithCode(1), "unknown platform");
}

TEST(Platform, ArmWriteThroughNeverDirtiesL1)
{
    const Platform &p = platform("cortexA53-wt");
    EXPECT_EQ(p.params.l1.writePolicy, WritePolicy::WriteThrough);
    Rng rng(1);
    Hierarchy h(p.params, &rng);
    const Addr a = h.l1().layout().compose(3, 1);
    h.access(0, a, true); // store miss
    h.access(0, a, true); // possibly a store hit
    EXPECT_FALSE(h.l1().isDirty(a));
    // The store data reached L2 (write-through traffic).
    EXPECT_TRUE(h.l2().contains(a));
}

TEST(Platform, DawgVariantPartitionsAndIsolatesL1)
{
    const Platform &p = platform("xeonE5-2650-dawg");
    ASSERT_EQ(p.params.l1.fillMaskPerThread.size(), 2u);
    EXPECT_EQ(p.params.l1.fillMaskPerThread[0] &
                  p.params.l1.fillMaskPerThread[1],
              0u); // disjoint halves
    EXPECT_TRUE(p.params.l1.probeIsolated);

    Hierarchy h(p.params, nullptr);
    const Addr a = h.l1().layout().compose(5, 1);
    h.access(0, a, false);
    // Thread 1 cannot see thread 0's line (probe isolation): its own
    // access misses L1 even though the line is resident.
    const auto res = h.access(1, a, false);
    EXPECT_FALSE(res.l1Hit);
}

TEST(Platform, InclusiveLlcBackInvalidatesUpperLevels)
{
    // Shrink the LLC to one set per line group so an eviction is easy
    // to force, keeping the inclusive flag from the preset.
    HierarchyParams hp = platform("desktop-inclusive").params;
    ASSERT_TRUE(hp.inclusiveLlc);
    hp.lat.noiseSigma = 0.0;
    hp.llc.sizeBytes = hp.llc.ways * lineBytes; // a single LLC set
    Hierarchy h(hp, nullptr);

    const auto &layout = h.l1().layout();
    // Fill the (single) LLC set beyond capacity; every line also maps
    // to L1/L2. The first line must eventually be back-invalidated
    // from every level when the LLC evicts it.
    const Addr first = layout.compose(0, 1);
    h.access(0, first, false);
    ASSERT_TRUE(h.llc().contains(first));
    // 2W further distinct fills guarantee the untouched first line is
    // chosen by tree-PLRU eventually. Each maps to its own L2 set, so
    // only back-invalidation can remove `first` from L2.
    for (Addr t = 2; t <= 2 * hp.llc.ways + 1; ++t)
        h.access(0, layout.compose(0, t), false);
    EXPECT_FALSE(h.llc().contains(first));
    EXPECT_FALSE(h.l2().contains(first)) << "no back-invalidation";
    EXPECT_FALSE(h.l1().contains(first)) << "no back-invalidation";
}

TEST(Platform, RegisterPlatformAddsAndReplaces)
{
    Platform custom;
    custom.name = "test-custom";
    custom.description = "registered at runtime";
    custom.params = platform(kDefaultPlatform).params;
    custom.params.l1.ways = 4;
    registerPlatform(custom);
    ASSERT_NE(findPlatform("test-custom"), nullptr);
    EXPECT_EQ(platform("test-custom").params.l1.ways, 4u);

    custom.params.l1.ways = 2;
    registerPlatform(custom); // replace in place
    EXPECT_EQ(platform("test-custom").params.l1.ways, 2u);

    const auto names = platformNames();
    EXPECT_EQ(std::count(names.begin(), names.end(), "test-custom"), 1);
}

TEST(Platform, ChannelConfigUsePlatformResolvesParamsAndNoise)
{
    chan::ChannelConfig cfg;
    cfg.usePlatform("cortexA53-wt");
    EXPECT_EQ(cfg.platformName, "cortexA53-wt");
    EXPECT_EQ(cfg.platform.l1.writePolicy, WritePolicy::WriteThrough);
    EXPECT_EQ(cfg.noise.tscGranularity,
              platform("cortexA53-wt").noise.tscGranularity);
}

TEST(Platform, AttackConfigUsePlatformResolves)
{
    sidechan::AttackConfig cfg;
    cfg.usePlatform("desktop-inclusive");
    EXPECT_EQ(cfg.platformName, "desktop-inclusive");
    EXPECT_TRUE(cfg.platform.inclusiveLlc);
}

/** A default Config holds exactly its named preset. */
template <class Config>
void
expectRunSpecResolves(const char *preset)
{
    Config cfg;
    const Platform &p = platform(preset);
    EXPECT_EQ(cfg.platformName, preset);
    EXPECT_EQ(cfg.seed, 1u);
    EXPECT_EQ(cfg.platform.l1.sizeBytes, p.params.l1.sizeBytes);
    EXPECT_EQ(cfg.platform.l1.writePolicy, p.params.l1.writePolicy);
    EXPECT_EQ(cfg.platform.llc.sizeBytes, p.params.llc.sizeBytes);
    EXPECT_EQ(cfg.platform.llcSlices, p.params.llcSlices);
    EXPECT_EQ(cfg.platform.inclusiveLlc, p.params.inclusiveLlc);
    EXPECT_EQ(cfg.noise.tscGranularity, p.noise.tscGranularity);
    EXPECT_EQ(cfg.noise.measBaseSigma, p.noise.measBaseSigma);
}

/**
 * A default multi-core Config has its preset's cores raised to the
 * floor of 2, and re-resolving a single-core preset keeps that floor.
 */
template <class Config>
void
expectCoresResolve(const char *preset)
{
    Config cfg;
    EXPECT_EQ(cfg.cores, std::max(2u, platform(preset).cores));
    cfg.usePlatform(kDefaultPlatform);
    EXPECT_EQ(cfg.cores, 2u);
}

TEST(RunSpec, EveryDefaultConfigIsItsNamedPreset)
{
    expectRunSpecResolves<chan::ChannelConfig>(kDefaultPlatform);
    expectRunSpecResolves<chan::L2ChannelConfig>(kDefaultPlatform);
    expectRunSpecResolves<chan::MultiSetConfig>(kDefaultPlatform);
    expectRunSpecResolves<baselines::BaselineConfig>(kDefaultPlatform);
    expectRunSpecResolves<sidechan::AttackConfig>(kDefaultPlatform);
    expectRunSpecResolves<chan::CrossCoreChannelConfig>(
        "desktop-inclusive-4core");
    expectRunSpecResolves<chan::TenantSweepConfig>("dc-sliced-64core");

    expectCoresResolve<sidechan::AttackConfig>(kDefaultPlatform);
    expectCoresResolve<chan::CrossCoreChannelConfig>(
        "desktop-inclusive-4core");
    expectCoresResolve<chan::TenantSweepConfig>("dc-sliced-64core");
}

/** Single-core configs carry no cores field a caller could set in vain. */
template <class Config>
constexpr bool hasPublicCores = requires(Config c) { c.cores; };
static_assert(!hasPublicCores<chan::ChannelConfig>);
static_assert(!hasPublicCores<chan::L2ChannelConfig>);
static_assert(!hasPublicCores<chan::MultiSetConfig>);
static_assert(!hasPublicCores<baselines::BaselineConfig>);
static_assert(hasPublicCores<chan::CrossCoreChannelConfig>);
static_assert(hasPublicCores<chan::TenantSweepConfig>);
static_assert(hasPublicCores<sidechan::AttackConfig>);

TEST(Platform, UsePlatformIsFatalOnUnknownName)
{
    chan::ChannelConfig cfg;
    EXPECT_EXIT(cfg.usePlatform("bogus"), ::testing::ExitedWithCode(1),
                "unknown platform");
}

} // namespace
} // namespace wb::sim
