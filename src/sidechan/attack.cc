#include "sidechan/attack.hh"

#include <algorithm>
#include <memory>
#include <optional>

#include "chan/calibration.hh"
#include "chan/pointer_chase.hh"
#include "chan/set_mapping.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "sim/multicore.hh"

namespace wb::sidechan
{

namespace
{

constexpr ThreadId attackerTid = 0;

/** Call-overhead dispersion when timing a whole victim invocation. */
constexpr double victimCallSigma = 10.0;

/** The attacker's working state for one experiment. */
struct AttackerCtx
{
    sim::MemorySystem *mem; //!< rebindable: migration moves the port
    sim::AddressSpace space;
    sim::NoiseModel noise;
    std::vector<Addr> dirtyLines;   //!< attacker lines it can dirty
    chan::PointerChase chaseA;      //!< probe sets for set m
    chan::PointerChase chaseB;
    bool useA = true;
    Rng &rng;

    /** Timed replacement of set m (alternating replacement sets). */
    double
    probe()
    {
        chan::PointerChase &chase = useA ? chaseA : chaseB;
        chase.reshuffle(rng);
        useA = !useA;
        // A sandboxed attacker cannot time the probe any finer than
        // its timer allows.
        return noise.observeOffline(
            chan::measureChaseOffline(*mem, attackerTid, space,
                                      chase.order(), noise),
            rng);
    }

    /** Dirty d attacker lines in set m (prime for scenario 2/3). */
    void
    dirtyPrime(unsigned d)
    {
        const std::size_t n =
            std::min<std::size_t>(d, dirtyLines.size());
        mem->accessBatch(attackerTid, space, dirtyLines.data(), n,
                         /*isWrite=*/true);
    }
};

/**
 * Per-trial OS-noise for the offline attack loop: co-runner bursts on
 * their cores, OS pollution on the attacker's core, and periodic
 * attacker migration (cross-core). A deterministic re-expression of
 * the Scheduler's regime at trial granularity.
 */
struct TrialNoise
{
    TrialNoise(const AttackConfig &cfg, sim::MultiCoreSystem *mc,
               sim::MemorySystem *fallback)
        : cfg_(cfg.scheduler), mc_(mc),
          pollution_(sim::coRunnerSeed(cfg.seed, 0x8000),
                     AddressSpaceId(200))
    {
        for (unsigned i = 0; i < cfg_.coRunners.size(); ++i) {
            runners_.push_back(std::make_unique<sim::CoRunnerProgram>(
                cfg_.coRunners[i], cfg_.coRunnerLines, cfg_.coRunnerGap,
                sim::coRunnerSeed(cfg.seed, i)));
            // Cross-core: co-runners spread over the cores after the
            // attacker's (core 1), wrapping onto the parties' cores —
            // the same progression the Scheduler uses. Same-core:
            // everything shares the one hierarchy.
            sim::MemorySystem *m = fallback;
            if (mc_ != nullptr)
                m = &mc_->port((2 + i) % mc_->coreCount());
            runnerMems_.push_back(m);
            runnerSpaces_.emplace_back(AddressSpaceId(100 + i));
        }
    }

    /** Interference between the victim's run and the probe. */
    void
    interfere(sim::MemorySystem &attackerMem)
    {
        for (unsigned i = 0; i < runners_.size(); ++i) {
            runners_[i]->burst(*runnerMems_[i],
                               sim::Scheduler::osTid - 2 - 2 * i,
                               runnerSpaces_[i]);
        }
        // Tick pollution only under co-runner load, mirroring the
        // Scheduler (which pollutes at context switches, and a core
        // nobody shares never switches): a migration-only config
        // measures the pure synchronization cost of migration.
        if (!runners_.empty()) {
            pollution_.burst(attackerMem, cfg_.pollutionLines,
                             cfg_.pollutionStoreFraction);
        }
    }

    const sim::SchedulerConfig &cfg_;
    sim::MultiCoreSystem *mc_;
    std::vector<std::unique_ptr<sim::CoRunnerProgram>> runners_;
    std::vector<sim::MemorySystem *> runnerMems_;
    std::vector<sim::AddressSpace> runnerSpaces_;
    sim::PollutionStream pollution_;
};

} // namespace

AttackResult
runAttack(const AttackConfig &cfg)
{
    Rng rng(cfg.seed);

    // Same-core: attacker and victim share one Hierarchy and contend
    // on an L1 set. Cross-core: the victim runs on core 0 and the
    // attacker on core 1 of a MultiCoreSystem, contending on a set of
    // the shared LLC (whose index layout both derive from their
    // virtual addresses).
    std::unique_ptr<sim::Hierarchy> hier;
    std::unique_ptr<sim::MultiCoreSystem> mc;
    sim::MemorySystem *atkMem = nullptr;
    sim::MemorySystem *vicMem = nullptr;
    unsigned ways = cfg.platform.l1.ways;
    unsigned replacementSize = cfg.replacementSize;
    if (cfg.crossCore) {
        if (cfg.cores < 2)
            fatalf("runAttack: cross-core needs >= 2 cores (victim and "
                   "attacker), got ", cfg.cores);
        mc = std::make_unique<sim::MultiCoreSystem>(cfg.platform, cfg.cores,
                                                    &rng);
        vicMem = &mc->port(0);
        atkMem = &mc->port(1);
        ways = cfg.platform.llc.ways;
        // The probe must be able to replace the whole LLC set.
        replacementSize = std::max(replacementSize, ways + 2);
    } else {
        hier = std::make_unique<sim::Hierarchy>(cfg.platform, &rng);
        atkMem = hier.get();
        vicMem = hier.get();
    }
    const sim::AddressLayout layout(cfg.crossCore
                                        ? cfg.platform.llc.numSets()
                                        : cfg.platform.l1.numSets());

    sim::AddressSpace attackerSpace(7);
    sim::AddressSpace victimSpace(8);

    // How many lines a full prime of the contended set takes. The L1
    // attack fills exactly the W ways; the LLC attack needs the same
    // slack as the probe (tree-PLRU spares recently-touched victim
    // lines from an exact-W fill of the larger shared set).
    const unsigned primeLines = cfg.crossCore ? replacementSize : ways;

    AttackerCtx atk{
        atkMem,
        attackerSpace,
        cfg.noise,
        chan::linesForSet(layout, cfg.setM, primeLines, /*tagBase=*/1),
        chan::PointerChase(chan::linesForSet(layout, cfg.setM,
                                             replacementSize, 0x100)),
        chan::PointerChase(chan::linesForSet(layout, cfg.setM,
                                             replacementSize, 0x200)),
        true,
        rng,
    };

    // Clean-noise lines the attacker uses to prime set n in scenario 3.
    auto cleanLinesN =
        chan::linesForSet(layout, cfg.setN, primeLines, /*tagBase=*/0x60);

    // Dedicated set-m pools for self-calibration (never resident in L1
    // right after a prime/probe, so their miss latencies are clean
    // measurements of the two states being contrasted).
    auto calPool0 =
        chan::linesForSet(layout, cfg.setM, ways, /*tagBase=*/0x300);
    auto calPool1 =
        chan::linesForSet(layout, cfg.setM, ways, /*tagBase=*/0x400);

    const GadgetKind gadget = cfg.scenario == Scenario::DirtyProbe
                                  ? GadgetKind::StoreBranch
                                  : GadgetKind::LoadBranch;
    Victim victim(*vicMem, layout, victimSpace, gadget, cfg.setM,
                  cfg.setN, cfg.serialLines, cfg.noise);

    // --- Self-calibration: the attacker measures the latency contrast
    // it expects, using only its own lines. ---
    Samples cal0, cal1;
    for (unsigned i = 0; i < cfg.calibration; ++i) {
        switch (cfg.scenario) {
          case Scenario::DirtyProbe:
            // secret=0 <-> clean set; secret=1 <-> 1 dirty line
            // (serialLines dirty lines when the gadget is widened).
            atk.probe(); // clean the set
            cal0.add(atk.probe());
            atk.dirtyPrime(cfg.serialLines);
            cal1.add(atk.probe());
            break;
          case Scenario::DirtyPrime:
            // secret=0 leaves the full dirty prime intact (the victim
            // touches set n); secret=1 evicts serialLines dirty lines,
            // making the probe cheaper by that many write-backs.
            atk.dirtyPrime(primeLines);
            cal0.add(atk.probe()); // full dirty prime intact
            atk.dirtyPrime(primeLines);
            // Emulate the victim's evictions with clean set-m loads.
            atkMem->accessBatch(attackerTid, attackerSpace,
                                calPool0.data(), cfg.serialLines,
                                /*isWrite=*/false);
            cal1.add(atk.probe());
            break;
          case Scenario::VictimTiming: {
            // Calibrate on the victim-visible latency of touching
            // serialLines lines over a dirty vs clean set.
            atk.dirtyPrime(primeLines);
            const auto b1 = atkMem->accessBatch(
                attackerTid, attackerSpace, calPool1.data(),
                cfg.serialLines, /*isWrite=*/false);
            cal1.add(static_cast<double>(
                b1.totalLatency + cfg.noise.opOverhead * b1.accesses));
            atk.probe(); // clean the set again
            const auto b0 = atkMem->accessBatch(
                attackerTid, attackerSpace, calPool0.data(),
                cfg.serialLines, /*isWrite=*/false);
            cal0.add(static_cast<double>(
                b0.totalLatency + cfg.noise.opOverhead * b0.accesses));
            break;
          }
        }
    }

    AttackResult res;
    res.threshold = (cal0.median() + cal1.median()) / 2.0;
    const bool oneIsSlow = cal1.median() >= cal0.median();

    // --- Per-trial OS noise (co-runners, pollution, migration). ---
    std::optional<TrialNoise> osNoise;
    if (cfg.scheduler.active())
        osNoise.emplace(cfg, mc.get(), atkMem);
    unsigned atkCore = 1; //!< attacker placement (cross-core)

    // --- The attack proper. ---
    Samples lat0, lat1;
    unsigned correct = 0;
    for (unsigned t = 0; t < cfg.trials; ++t) {
        // Mid-trial OS events, applied between the attacker's staging
        // and its measurement (the window a real attack loop cannot
        // shield): co-runner bursts and tick pollution every trial,
        // plus — every migrationPeriod trials — a forced migration of
        // the attacker to the next victim-free core. The victim keeps
        // running during the migration gap, so the staged
        // synchronization window is lost and that trial decays toward
        // a coin flip; accuracy falls as the period shrinks.
        const bool migrateNow = cfg.crossCore &&
                                cfg.scheduler.migrationPeriod != 0 &&
                                t != 0 &&
                                t % cfg.scheduler.migrationPeriod == 0;
        auto midTrial = [&]() {
            if (migrateNow) {
                do {
                    atkCore = (atkCore + 1) % mc->coreCount();
                } while (atkCore == 0);
                atkMem = &mc->port(atkCore);
                atk.mem = atkMem;
                victim.run(rng.flip()); // the unobserved invocation
            }
            if (osNoise)
                osNoise->interfere(*atkMem);
        };
        const bool secret = rng.flip();
        double measured = 0.0;
        switch (cfg.scenario) {
          case Scenario::DirtyProbe:
            atk.probe(); // initialization: clean set m
            midTrial();
            victim.run(secret);
            measured = atk.probe();
            break;
          case Scenario::DirtyPrime:
            atk.dirtyPrime(primeLines);
            midTrial();
            victim.run(secret);
            measured = atk.probe();
            break;
          case Scenario::VictimTiming: {
            atk.dirtyPrime(primeLines);
            atkMem->accessBatch(attackerTid, attackerSpace, cleanLinesN,
                                /*isWrite=*/false);
            midTrial();
            Cycles vt = victim.run(secret);
            measured = static_cast<double>(vt);
            // Timing a whole function call carries call/ret, pipeline
            // and serialization dispersion far above the per-load
            // noise — the reason the paper finds a single secret-
            // dependent line insufficient for scenario 3.
            measured += rng.gaussian(0.0, victimCallSigma);
            break;
          }
        }
        (secret ? lat1 : lat0).add(measured);
        const bool guess = oneIsSlow ? measured > res.threshold
                                     : measured < res.threshold;
        if (guess == secret)
            ++correct;
    }

    res.accuracy = cfg.trials
        ? static_cast<double>(correct) / static_cast<double>(cfg.trials)
        : 0.0;
    res.meanLatency0 = lat0.mean();
    res.meanLatency1 = lat1.mean();
    return res;
}

unsigned
recoverKeyDemo(unsigned keyBits, unsigned votes, std::uint64_t seed,
               const std::string &platformName)
{
    Rng rng(seed);
    const sim::Platform &plat = sim::platform(platformName);
    const sim::HierarchyParams &hp = plat.params;
    const sim::NoiseModel &noise = plat.noise;
    sim::Hierarchy hierarchy(hp, &rng);
    const auto &layout = hierarchy.l1().layout();

    sim::AddressSpace attackerSpace(7);
    sim::AddressSpace victimSpace(8);
    const unsigned setM = 13;
    const unsigned setN = 21;

    Victim victim(hierarchy, layout, victimSpace, GadgetKind::StoreBranch,
                  setM, setN, /*serialLines=*/1, noise);

    AttackerCtx atk{
        &hierarchy,
        attackerSpace,
        noise,
        chan::linesForSet(layout, setM, hp.l1.ways, 1),
        chan::PointerChase(chan::linesForSet(layout, setM, 10, 0x100)),
        chan::PointerChase(chan::linesForSet(layout, setM, 10, 0x200)),
        true,
        rng,
    };

    // Calibrate threshold.
    Samples c0, c1;
    for (unsigned i = 0; i < 100; ++i) {
        atk.probe();
        c0.add(atk.probe());
        atk.dirtyPrime(1);
        c1.add(atk.probe());
    }
    const double threshold = (c0.median() + c1.median()) / 2.0;

    // The secret key the victim holds.
    std::vector<bool> key;
    for (unsigned i = 0; i < keyBits; ++i)
        key.push_back(rng.flip());

    unsigned recovered = 0;
    for (unsigned bit = 0; bit < keyBits; ++bit) {
        unsigned ones = 0;
        for (unsigned v = 0; v < votes; ++v) {
            atk.probe(); // clean
            victim.run(key[bit]); // victim's round touches set m iff 1
            if (atk.probe() > threshold)
                ++ones;
        }
        const bool guess = 2 * ones > votes;
        if (guess == key[bit])
            ++recovered;
    }
    return recovered;
}

} // namespace wb::sidechan
