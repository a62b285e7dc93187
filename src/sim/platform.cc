#include "sim/platform.hh"

#include <algorithm>
#include <memory>

#include "common/log.hh"

namespace wb::sim
{

HierarchyParams
xeonE5_2650Params()
{
    HierarchyParams p;
    p.l1.name = "L1D";
    p.l1.sizeBytes = 32 * 1024; // 64 sets x 8 ways x 64 B (Table III)
    p.l1.ways = 8;
    p.l1.policy = PolicyKind::TreePlru;

    p.l2.name = "L2";
    p.l2.sizeBytes = 256 * 1024;
    p.l2.ways = 8;
    p.l2.policy = PolicyKind::TreePlru;

    p.llc.name = "LLC";
    p.llc.sizeBytes = 4 * 1024 * 1024; // scaled-down 20 MiB shared LLC
    p.llc.ways = 16;
    p.llc.policy = PolicyKind::TreePlru;
    return p;
}

namespace
{

/**
 * Shared shape of every preset's OS-noise default: a timeslice short
 * enough that simulated transmissions (a few hundred thousand cycles)
 * see several switches — the compressed-timescale analogue of a
 * millisecond timer tick — with a modest per-switch pollution burst.
 */
SchedulerConfig
serverNoisePreset()
{
    SchedulerConfig s;
    s.timeslice = 50000;
    s.pollutionLines = 8;
    s.pollutionStoreFraction = 0.25;
    s.coRunnerLines = 192;
    s.coRunnerGap = 2500;
    return s;
}

Platform
xeonPlatform()
{
    Platform p;
    p.name = kDefaultPlatform;
    p.description = "Intel Xeon E5-2650, the paper's measured machine "
                    "(Table III geometry, Table IV latencies)";
    p.params = xeonE5_2650Params();
    p.noisePreset = serverNoisePreset();
    return p;
}

Platform
armWriteThroughPlatform()
{
    Platform p;
    p.name = "cortexA53-wt";
    p.description = "ARM-style in-order core with a write-through, "
                    "no-write-allocate L1 and LFSR pseudo-random "
                    "replacement (Table V policy discussion); dirty L1 "
                    "lines never exist, the paper's strongest defense";
    p.params.l1.name = "L1D";
    p.params.l1.sizeBytes = 32 * 1024;
    p.params.l1.ways = 4;
    p.params.l1.policy = PolicyKind::LfsrRandom;
    p.params.l1.writePolicy = WritePolicy::WriteThrough;
    p.params.l1.allocPolicy = AllocPolicy::NoWriteAllocate;

    p.params.l2.name = "L2";
    p.params.l2.sizeBytes = 512 * 1024;
    p.params.l2.ways = 16;
    p.params.l2.policy = PolicyKind::Nru;

    p.params.llc.name = "LLC";
    p.params.llc.sizeBytes = 1024 * 1024;
    p.params.llc.ways = 16;
    p.params.llc.policy = PolicyKind::Nru;

    p.params.lat.l1Hit = 3;
    p.params.lat.l2Hit = 15;
    p.params.lat.llcHit = 40;
    p.params.lat.mem = 160;
    p.params.lat.storeVisibleLatency = 2;
    p.params.lat.writeThroughStore = 8;

    // The generic timer is far coarser than rdtscp.
    p.noise.tscReadCost = 20;
    p.noise.tscGranularity = 32;

    // Mobile-class OS: shorter ticks, relatively heavier switch
    // pollution into the small 4-way L1, smaller co-runner sets.
    p.noisePreset = serverNoisePreset();
    p.noisePreset.timeslice = 32000;
    p.noisePreset.pollutionLines = 12;
    p.noisePreset.coRunnerLines = 128;
    p.noisePreset.coRunnerGap = 2000;
    return p;
}

Platform
desktopInclusivePlatform()
{
    Platform p;
    p.name = "desktop-inclusive";
    p.description = "Client-class desktop part with an inclusive LLC: "
                    "LLC evictions back-invalidate L1/L2 copies, adding "
                    "cross-core line kills the Xeon's non-inclusive "
                    "LLC does not exhibit";
    p.params = xeonE5_2650Params();
    p.params.l2.sizeBytes = 256 * 1024;
    p.params.l2.ways = 4;
    p.params.llc.sizeBytes = 8 * 1024 * 1024;
    p.params.llc.ways = 16;
    p.params.inclusiveLlc = true;
    p.params.lat.l2Hit = 12;
    p.params.lat.llcHit = 42;
    p.params.lat.mem = 210;

    // Desktop load: interactive processes switch more often and drag
    // larger working sets through the inclusive LLC.
    p.noisePreset = serverNoisePreset();
    p.noisePreset.timeslice = 40000;
    p.noisePreset.pollutionLines = 10;
    p.noisePreset.coRunnerLines = 256;
    return p;
}

Platform
dawgDefendedPlatform()
{
    Platform p;
    p.name = "xeonE5-2650-dawg";
    p.description = "The Xeon E5-2650 with DAWG-style way partitioning "
                    "on the L1D (Sec. VIII defense verdict: effective): "
                    "thread 0/1 each own half the ways, probes isolated";
    p.params = xeonE5_2650Params();
    p.noisePreset = serverNoisePreset();
    const unsigned ways = p.params.l1.ways;
    p.params.l1.fillMaskPerThread = {
        wayMaskRange(0, ways / 2),
        wayMaskRange(ways / 2, ways),
    };
    p.params.l1.probeIsolated = true;
    return p;
}

Platform
xeon2CorePlatform()
{
    Platform p = xeonPlatform();
    p.name = "xeonE5-2650-2core";
    p.description = "Two Xeon E5-2650 cores (private L1/L2) over the "
                    "shared non-inclusive LLC: cross-core dirty state "
                    "moves only via MESI snoop write-backs, so the "
                    "shared-LLC eviction channel stays closed";
    p.cores = 2;
    return p;
}

Platform
desktop4CorePlatform()
{
    Platform p = desktopInclusivePlatform();
    p.name = "desktop-inclusive-4core";
    p.description = "Four desktop cores over the shared inclusive LLC: "
                    "an LLC eviction back-invalidates every core's "
                    "privates, so a receiver on another core observes "
                    "the sender's dirty lines as write-back drains";
    p.cores = 4;
    return p;
}

/**
 * The many-tenant datacenter part: a desktop-style inclusive LLC
 * sharded into 8 slices by the Intel-style XOR-of-tag-bits hash, at
 * 16/32/64 cores. The slice hash is what makes these presets
 * *different in kind* from desktop-inclusive-4core: hand-built "same
 * LLC set" line pools scatter across slices, so a tenant must
 * discover eviction sets at runtime (chan::EvictionSetFinder), and
 * the per-slice sharer directories are what keep coherence traffic
 * ~O(sharers) at these core counts (docs/TENANTS.md).
 */
Platform
dcSlicedPlatform(unsigned cores, std::size_t llcBytes)
{
    Platform p = desktopInclusivePlatform();
    p.name = "dc-sliced-" + std::to_string(cores) + "core";
    p.description = "Datacenter-class socket: " + std::to_string(cores) +
                    " cores over an inclusive " +
                    std::to_string(llcBytes >> 20) +
                    " MiB LLC sharded into 8 slices by the "
                    "XOR-of-tag-bits hash; the many-tenant sweep target";
    p.cores = cores;
    p.params.llc.sizeBytes = llcBytes;
    p.params.llcSlices = 8;
    // A few interconnect hops further to the right slice than the
    // client part's ring position.
    p.params.lat.llcHit = 46;
    p.params.lat.mem = 220;

    // Datacenter hosts run fuller: shorter effective timeslices and
    // larger co-runner working sets than the desktop preset.
    p.noisePreset.timeslice = 45000;
    p.noisePreset.coRunnerLines = 384;
    return p;
}

/** Registry storage: stable allocations so lookups stay valid. */
std::vector<std::unique_ptr<Platform>> &
registry()
{
    static std::vector<std::unique_ptr<Platform>> platforms = [] {
        std::vector<std::unique_ptr<Platform>> v;
        v.push_back(std::make_unique<Platform>(xeonPlatform()));
        v.push_back(std::make_unique<Platform>(armWriteThroughPlatform()));
        v.push_back(
            std::make_unique<Platform>(desktopInclusivePlatform()));
        v.push_back(std::make_unique<Platform>(dawgDefendedPlatform()));
        v.push_back(std::make_unique<Platform>(xeon2CorePlatform()));
        v.push_back(std::make_unique<Platform>(desktop4CorePlatform()));
        v.push_back(std::make_unique<Platform>(
            dcSlicedPlatform(16, 16 * 1024 * 1024)));
        v.push_back(std::make_unique<Platform>(
            dcSlicedPlatform(32, 32 * 1024 * 1024)));
        v.push_back(std::make_unique<Platform>(
            dcSlicedPlatform(64, 32 * 1024 * 1024)));
        return v;
    }();
    return platforms;
}

} // namespace

const Platform *
findPlatform(const std::string &name)
{
    for (const auto &p : registry())
        if (p->name == name)
            return p.get();
    return nullptr;
}

const Platform &
platform(const std::string &name)
{
    if (const Platform *p = findPlatform(name))
        return *p;
    std::string known;
    for (const auto &p : registry()) {
        if (!known.empty())
            known += ", ";
        known += p->name;
    }
    fatalf("platform: unknown platform \"", name, "\" (known: ", known,
           ")");
}

RunSpec::RunSpec(const char *preset, unsigned coreFloor)
    : platformName(preset), coreFloor_(coreFloor)
{
    usePlatform(platformName);
}

void
RunSpec::usePlatform(const std::string &name)
{
    const Platform &p = sim::platform(name);
    platformName = p.name;
    platform = p.params;
    noise = p.noise;
    cores = std::max(coreFloor_, p.cores);
}

std::vector<const Platform *>
allPlatforms()
{
    std::vector<const Platform *> out;
    out.reserve(registry().size());
    for (const auto &p : registry())
        out.push_back(p.get());
    return out;
}

std::vector<std::string>
platformNames()
{
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const auto &p : registry())
        names.push_back(p->name);
    return names;
}

void
registerPlatform(Platform p)
{
    if (p.name.empty())
        fatalf("registerPlatform: empty platform name");
    for (auto &existing : registry()) {
        if (existing->name == p.name) {
            *existing = std::move(p);
            return;
        }
    }
    registry().push_back(std::make_unique<Platform>(std::move(p)));
}

} // namespace wb::sim
