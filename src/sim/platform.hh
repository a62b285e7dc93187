/**
 * @file
 * Platform registry: named, fully specified simulation targets.
 *
 * A Platform bundles the three things an experiment needs to stand up
 * a machine — HierarchyParams (geometry, write/alloc policies,
 * defenses), the LatencyModel embedded in them, and the NoiseModel —
 * under a string name, so channel/attack/defense configurations can
 * select a machine without hand-editing parameter structs. The
 * registry ships the paper's Xeon E5-2650 (Tables III/IV) plus
 * contrast scenarios (a write-through-L1 ARM-style core, an
 * inclusive-LLC desktop part, a DAWG-partitioned variant); new
 * scenarios register at runtime via registerPlatform() without
 * touching the engine. Every runner config derives from RunSpec, which
 * resolves a preset by name. See docs/PLATFORMS.md for the preset
 * table.
 */

#ifndef WB_SIM_PLATFORM_HH
#define WB_SIM_PLATFORM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/hierarchy.hh"
#include "sim/noise_model.hh"
#include "sim/scheduler.hh"

namespace wb::sim
{

/** A named, fully specified simulation target. */
struct Platform
{
    std::string name;        //!< registry key ("xeonE5-2650", ...)
    std::string description; //!< one-line provenance / calibration note
    HierarchyParams params;  //!< geometry + latency model + defenses
    NoiseModel noise;        //!< scheduling/measurement noise

    /**
     * Physical cores the preset models. 1 stands the machine up as a
     * single Hierarchy (the paper's SMT deployment); >1 presets are
     * meant for MultiCoreSystem: per-core private L1/L2 from `params`
     * over one shared LLC, with `params.inclusiveLlc` deciding whether
     * LLC evictions back-invalidate every core's privates.
     */
    unsigned cores = 1;

    /**
     * Default OS-noise regime for this machine (timeslice length,
     * context-switch pollution, co-runner working-set sizing), tuned
     * per platform. Co-runner list and migration period are left
     * empty/zero — the *sweep* decides those — and configs do NOT
     * adopt this automatically on usePlatform(): opt in with
     * cfg.scheduler = sim::platform(name).noisePreset.
     */
    SchedulerConfig noisePreset;
};

/** Name of the paper's platform, the default everywhere. */
inline constexpr const char *kDefaultPlatform = "xeonE5-2650";

/** Look up a preset; fatal with the known names on an unknown name. */
const Platform &platform(const std::string &name);

/** Look up a preset; nullptr on an unknown name. */
const Platform *findPlatform(const std::string &name);

/** All registered platforms, in registration order. */
std::vector<const Platform *> allPlatforms();

/** The registered names, in registration order. */
std::vector<std::string> platformNames();

/**
 * Register a scenario (or replace the existing one of the same name).
 * Pointers returned by earlier lookups stay valid: platforms are
 * stored behind stable allocations.
 */
void registerPlatform(Platform p);

/**
 * What every runner configuration shares: the machine it runs on and
 * the run seed. Each config type derives from RunSpec and names its
 * default preset and core floor; the constructor resolves that
 * preset, so a default config is its named preset by construction.
 * usePlatform() is the one place a config resolves a platform.
 */
struct RunSpec
{
    /**
     * Registry preset the fields below were resolved from. Runners
     * read the resolved parameters, so defenses and experiments can
     * still tweak them after selecting a platform.
     */
    std::string platformName;
    HierarchyParams platform; //!< geometry + latency model + defenses
    NoiseModel noise;         //!< scheduling/measurement noise

  protected:
    /**
     * Cores a multi-core runner instantiates: the preset's count,
     * raised to the config type's floor (2 where the runner needs a
     * sender and a receiver core). Only the multi-core configs make
     * it public (`using sim::RunSpec::cores;`); single-core configs
     * have no cores field.
     */
    unsigned cores = 1;

  public:
    std::uint64_t seed = 1; //!< run seed (bit-exact reproducible)

    /**
     * Reconfigure for a named registry preset: hierarchy parameters,
     * noise model and core count. Fatal on an unknown name.
     */
    void usePlatform(const std::string &name);

  protected:
    /** Resolve @p preset; cores never drop below @p coreFloor. */
    RunSpec(const char *preset, unsigned coreFloor);

  private:
    unsigned coreFloor_;
};

} // namespace wb::sim

#endif // WB_SIM_PLATFORM_HH
