/**
 * @file
 * The three WB side-channel scenarios of paper Sec. IX.
 *
 *  1. Store gadget: the attacker cleans set m, lets the victim run,
 *     then times a replacement of set m. A dirty line (the victim's
 *     secret-dependent store) raises the latency — secret recovered.
 *  2. Load gadget (read-only secret): the attacker pre-fills set m
 *     with W dirty lines of its own. A victim load into set m evicts
 *     one dirty line, so the attacker's subsequent timed replacement
 *     of set m is one dirty write-back *cheaper* — secret recovered.
 *  3. Execution-time: the attacker fills set m with dirty lines and
 *     set n with clean lines, then times the *victim's* execution: a
 *     secret=1 branch (set m) must write back dirty victims and runs
 *     slower. The signal only clears call-overhead noise when each
 *     branch touches at least two lines serially (paper's finding).
 */

#ifndef WB_SIDECHAN_ATTACK_HH
#define WB_SIDECHAN_ATTACK_HH

#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "sidechan/victim.hh"
#include "sim/platform.hh"
#include "sim/scheduler.hh"

namespace wb::sidechan
{

/** Which Sec. IX scenario to run. */
enum class Scenario
{
    DirtyProbe = 1,     //!< scenario 1 (store gadget)
    DirtyPrime = 2,     //!< scenario 2 (load gadget, dirty prime)
    VictimTiming = 3    //!< scenario 3 (victim execution time)
};

/** Experiment parameters. */
struct AttackConfig
{
    Scenario scenario = Scenario::DirtyProbe;
    unsigned trials = 200;        //!< secrets to recover
    unsigned serialLines = 1;     //!< victim lines per branch
    unsigned setM = 13;           //!< secret=1 branch set
    unsigned setN = 21;           //!< secret=0 branch set
    unsigned replacementSize = 10; //!< attacker probe size
    unsigned calibration = 200;   //!< calibration measurements
    std::uint64_t seed = 1;

    /**
     * Cross-core variant: victim on core 0, attacker on core 1 of a
     * MultiCoreSystem, with the target sets indexed against the
     * *shared LLC* layout instead of the L1. The attacker's timed
     * replacement of LLC set m observes the victim's dirty lines as
     * inclusive back-invalidation drains — the same three scenarios,
     * carried across cores. replacementSize resolves to llc.ways + 2
     * when it would not cover the LLC set.
     */
    bool crossCore = false;
    unsigned cores = 2; //!< cores instantiated when crossCore is set

    /** Registry preset this config was built from (see usePlatform). */
    std::string platformName = sim::kDefaultPlatform;
    sim::HierarchyParams platform = sim::xeonE5_2650Params();
    sim::NoiseModel noise;

    /**
     * OS-noise regime (Table VII) for the attack loop. The attack is
     * an offline measurement loop (no SMT interleaving), so the
     * scheduler knobs are applied per trial: each co-runner issues
     * one burst between the victim's run and the attacker's probe,
     * the OS pollutes the attacker's core with pollutionLines touches
     * per trial, and — cross-core only — migrationPeriod counts the
     * *trials* between forced attacker migrations to the next
     * victim-free core. Inactive by default.
     */
    sim::SchedulerConfig scheduler;

    /**
     * Reconfigure for a named registry preset: hierarchy parameters,
     * noise model, and the preset's core count (at least 2, used only
     * when crossCore is set). Fatal on an unknown name. @return *this.
     */
    AttackConfig &
    usePlatform(const std::string &name)
    {
        cores = std::max(
            2u, sim::applyPlatform(name, platformName, platform, noise).cores);
        return *this;
    }
};

/** Experiment outcome. */
struct AttackResult
{
    double accuracy = 0.0;   //!< fraction of secrets recovered
    double threshold = 0.0;  //!< calibrated decision threshold
    double meanLatency0 = 0.0; //!< mean probe/exec latency, secret=0
    double meanLatency1 = 0.0; //!< mean probe/exec latency, secret=1
};

/**
 * Run one side-channel experiment: per trial, pick a random secret,
 * stage the attack, run the victim, and infer the secret from the
 * measured latency. The attacker self-calibrates its threshold first
 * (using its own lines only — no knowledge of the victim's secret).
 */
AttackResult runAttack(const AttackConfig &cfg);

/**
 * End-to-end key recovery demo: a victim "cipher" whose round function
 * stores into set m exactly when the current key bit is 1 (gadget a).
 * The attacker recovers the whole key with scenario 1, one bit at a
 * time with majority voting.
 *
 * @param keyBits key length
 * @param votes odd number of probes per bit
 * @param seed run seed
 * @param platformName registry preset to attack on
 * @return number of correctly recovered bits
 */
unsigned recoverKeyDemo(unsigned keyBits, unsigned votes,
                        std::uint64_t seed,
                        const std::string &platformName =
                            sim::kDefaultPlatform);

} // namespace wb::sidechan

#endif // WB_SIDECHAN_ATTACK_HH
