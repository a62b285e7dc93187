/**
 * @file
 * End-to-end benchmark worker for libwbchan (driven by run.py).
 *
 * One process runs one workload as a closed loop with a single client:
 * cells execute serially on this thread, one runner call after the
 * other, with no SweepRunner. A *cell* is one call into a runner with
 * one config and one seed; every cell seed is derived from --seed.
 *
 *   wbbench --workload W --seed N --pass P [--checks C] [--trace 0|1]
 *           [--spawn-ns T] [--spans FILE]
 *
 * The process warms up untimed, then runs pass P: a fixed list of
 * cells for a given seed, so the simulated outputs of a pass repeat
 * exactly in every process that runs it. Each cell's host time comes
 * with the host-speed gauge read around it. After timing it re-runs C
 * cells and checks their outputs (Workload::check). It prints one JSON
 * object on stdout; run.py spreads a run over many such processes and
 * pools them.
 *
 * With --trace 1 the pass runs untraced and then traced. A traced
 * cell records spans (name, start, end, parent) around the calls this
 * file makes into each layer, re-calls chan::calibrate and
 * chan::decodeTransmission to time them apart from the platform run,
 * and writes every span to --spans at exit.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chan/calibration.hh"
#include "chan/channel.hh"
#include "chan/cross_core.hh"
#include "chan/protocol.hh"
#include "chan/tenant.hh"
#include "chan/transport.hh"
#include "common/rng.hh"
#include "sim/platform.hh"
#include "sim/scheduler.hh"

using namespace wb;

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Host-speed gauge: host ns per iteration of a fixed dependent
 * add/add/compare/branch loop, best of three short runs. On a shared
 * host the loop slows when the simulator does, and it never changes
 * with the library, so run.py rescales cell times by the gauge read
 * around each cell (perfbench/NOTES.md, "Host noise").
 */
double
gaugeNs()
{
    constexpr std::uint64_t kIters = 500'000;
    double best = 0.0;
    for (int k = 0; k < 3; ++k) {
        std::uint64_t x = 0, i = 0;
        const std::int64_t t0 = nowNs();
#if defined(__x86_64__)
        asm volatile(".p2align 6\n"
                     "1:\n\t"
                     "add %1, %0\n\t"
                     "add $1, %1\n\t"
                     "cmp %2, %1\n\t"
                     "jne 1b"
                     : "+r"(x), "+r"(i)
                     : "r"(kIters));
#else
        for (; i < kIters; ++i) {
            x += i;
            asm volatile("" : "+r"(x));
        }
#endif
        const double ns = double(nowNs() - t0) / double(kIters);
        best = k == 0 ? ns : std::min(best, ns);
    }
    return best;
}

[[noreturn]] void
fail(const std::string &why)
{
    std::fprintf(stderr, "wbbench: %s\n", why.c_str());
    std::exit(1);
}

/** Output checks that failed; reported, not fatal, so run.py can
 *  print "correct": false with the metrics. */
std::vector<std::string> gFailures;

void
expect(bool ok, const std::string &what)
{
    if (!ok)
        gFailures.push_back(what);
}

/** SplitMix64 finalizer: independent cell seeds from one workload seed. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
cellSeed(std::uint64_t workloadSeed, unsigned pass, unsigned index)
{
    return mix64(mix64(workloadSeed) ^ (std::uint64_t(pass) << 32 | index)) |
           1;
}

// ------------------------------------------------------------ tracing

struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1; //!< index into the span list, -1 for a cell root
};

/**
 * In-memory span store. Spans are appended at the boundaries of the
 * calls this file makes into the library; nothing inside libwbchan is
 * instrumented.
 */
class Tracer
{
  public:
    int
    open(const std::string &name, int parent)
    {
        spans_.push_back({name, nowNs(), 0, parent});
        return int(spans_.size() - 1);
    }

    void close(int id) { spans_[std::size_t(id)].end = nowNs(); }

    double
    ms(int id) const
    {
        const Span &s = spans_[std::size_t(id)];
        return double(s.end - s.start) / 1e6;
    }

    const std::vector<Span> &spans() const { return spans_; }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            fail("cannot write spans to " + path);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "{\"id\":" << i << ",\"name\":\"" << s.name
                << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
                << ",\"parent\":" << s.parent << "}\n";
        }
    }

  private:
    std::vector<Span> spans_;
};

/**
 * Opens a span on construction and closes it at stop() or scope exit,
 * whichever comes first. Without a tracer it records nothing.
 */
class Scope
{
  public:
    Scope(Tracer *t, const char *name, int parent)
        : t_(t), id_(t ? t->open(name, parent) : -1)
    {
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope() { stop(); }

    int id() const { return id_; }

    /** Close the span; @return its duration in ms (0 untraced). */
    double
    stop()
    {
        if (!t_)
            return 0.0;
        if (!stopped_)
            t_->close(id_);
        stopped_ = true;
        return t_->ms(id_);
    }

  private:
    Tracer *t_;
    int id_;
    bool stopped_ = false;
};

// ------------------------------------------------------ cell outcomes

/**
 * The simulated outputs of one cell plus, for a traced cell, its
 * per-layer times and counts. Simulated fields are exact functions of
 * the cell's config and seed.
 */
struct CellOut
{
    // Simulated, pooled into the end-to-end metrics.
    double berWeighted = 0.0; //!< ber x bits it was measured over
    double berBits = 0.0;
    double goodputKbps = 0.0;
    double delivered = 0.0;
    double deliverable = 0.0;
    std::uint64_t fingerprint = 0; //!< hash of every simulated output
    unsigned config = 0;

    // Per-layer, from a traced cell (zero where a layer did no work).
    std::map<std::string, double> times; //!< ms
    std::map<std::string, double> counts;
};

/** FNV-1a over the bytes of simulated outputs. */
class Fingerprint
{
  public:
    template <typename T>
    Fingerprint &
    add(const T &v)
    {
        const auto *p = reinterpret_cast<const unsigned char *>(&v);
        for (std::size_t i = 0; i < sizeof(T); ++i)
            h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
        return *this;
    }
    template <typename T>
    Fingerprint &
    addAll(const std::vector<T> &v)
    {
        for (const T &x : v)
            add(x);
        return *this;
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void
addCounters(CellOut &out, const sim::PerfCounters &c)
{
    out.counts["l1_accesses"] += double(c.l1Accesses());
    out.counts["l1_misses"] += double(c.l1Misses);
    out.counts["sim.l1_dirty_writebacks"] += double(c.l1DirtyWritebacks);
    out.counts["sim.llc_dirty_evictions"] += double(c.llcDirtyEvictions);
    out.counts["sim.cross_core_snoops"] += double(c.crossCoreSnoops);
}

void
addScheduler(CellOut &out, const sim::SchedulerStats &s)
{
    out.counts["sim.scheduler.corunner_accesses"] +=
        double(s.coRunnerAccesses);
    out.counts["sim.scheduler.context_switches"] += double(s.contextSwitches);
    out.counts["sim.scheduler.migrations"] += double(s.migrations);
    out.counts["sim.scheduler.pollution_accesses"] +=
        double(s.pollutionAccesses);
}

void
fingerprintChannel(Fingerprint &fp, const chan::ChannelResult &r)
{
    fp.add(r.ber).add(r.goodputKbps).add(r.framesScored)
        .add(r.framesExpected).add(r.simulatedCycles)
        .add(r.senderCounters).add(r.receiverCounters)
        .add(r.schedulerStats).addAll(r.latencies)
        .addAll(r.calibrationMedians);
}

// ----------------------------------------------------------- workloads

/**
 * A workload: a fixed list of configs; cell i of a pass runs config
 * i % configs with a seed derived from (workload seed, pass, i).
 */
class Workload
{
  public:
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;
    virtual ~Workload() = default;
    virtual unsigned configs() const = 0;
    virtual unsigned cellsPerPass() const = 0;
    virtual CellOut run(unsigned config, std::uint64_t seed,
                        Tracer *tracer) = 0;

    /**
     * Untimed set-up before the first timed cell: pays lazy set-up
     * (platform registry, first-touch allocations) so no timed cell
     * does. By default one cell of the first config.
     */
    virtual void warmUp(std::uint64_t seed) { (void)run(0, seed, nullptr); }

    /**
     * Re-run one cell and check its outputs: the simulated outputs must
     * be bit-identical to @p first's, plus any workload-specific
     * checks. Returns an empty string when every check passes.
     */
    virtual std::string
    check(unsigned config, std::uint64_t seed, const CellOut &first)
    {
        if (run(config, seed, nullptr).fingerprint != first.fingerprint)
            return "a repeated cell's simulated outputs differ";
        return {};
    }
};

// quiet-channel ------------------------------------------------------

/**
 * The paper's loop (calibrate, transmit over one L1 set, decode) on the
 * Xeon E5-2650 preset with the cycle-accurate observer, no scheduler
 * and no transport, at the operating points of Figs. 6-7.
 */
class QuietChannel final : public Workload
{
  public:
    QuietChannel()
    {
        struct Point
        {
            Cycles ts;
            chan::Encoding enc;
        };
        const Point points[] = {
            {1600, chan::Encoding::binary(1)},
            {1600, chan::Encoding::binary(8)},
            {1000, chan::Encoding::paperTwoBit()},
        };
        for (const Point &p : points) {
            chan::ChannelConfig cfg;
            cfg.usePlatform("xeonE5-2650");
            cfg.protocol.ts = cfg.protocol.tr = p.ts;
            cfg.protocol.encoding = p.enc;
            cfg.protocol.frames = 90;
            configs_.push_back(cfg);
        }
    }

    unsigned configs() const override { return unsigned(configs_.size()); }
    unsigned cellsPerPass() const override { return 24; }

    /**
     * A short run of every config: the same code paths as a cell at a
     * tenth of the frames, so set-up is not dominated by one cell's
     * simulation time.
     */
    void
    warmUp(std::uint64_t seed) override
    {
        for (chan::ChannelConfig cfg : configs_) {
            cfg.seed = seed;
            cfg.protocol.frames = 9;
            (void)chan::runChannel(cfg);
        }
    }

    CellOut
    run(unsigned config, std::uint64_t seed, Tracer *tracer) override
    {
        chan::ChannelConfig cfg = configs_[config];
        cfg.seed = seed;
        CellOut out;
        Scope cell(tracer, "cell", -1);
        chan::ChannelResult r;
        double runMs = 0.0;
        {
            Scope s(tracer, "chan.runChannel", cell.id());
            r = chan::runChannel(cfg);
            runMs = s.stop();
        }
        score(out, r, cfg);
        if (!tracer)
            return out;

        const std::string why = recheck(cfg, r, tracer, cell.id(), out);
        expect(why.empty(), "quiet-channel: " + why);
        const double simMs = runMs - out.times["chan.calibrate.ms"] -
                             out.times["chan.decode.ms"];
        out.times["sim.run.ms"] = simMs;
        addCounters(out, r.senderCounters);
        addCounters(out, r.receiverCounters);
        addScheduler(out, r.schedulerStats);
        out.counts["sim_cycles"] += double(r.simulatedCycles);
        out.counts["sim_ns"] += simMs * 1e6;
        return out;
    }

    std::string
    check(unsigned config, std::uint64_t seed,
          const CellOut &first) override
    {
        chan::ChannelConfig cfg = configs_[config];
        cfg.seed = seed;
        const chan::ChannelResult r = chan::runChannel(cfg);
        CellOut again;
        score(again, r, cfg);
        if (again.fingerprint != first.fingerprint)
            return "a repeated cell's simulated outputs differ";
        return recheck(cfg, r, nullptr, -1, again);
    }

  private:
    /**
     * Re-call chan::calibrate with the cell seed's calibration split
     * (the first split, as runChannel draws it) and re-run
     * chan::decodeTransmission on the cell's latencies; both must
     * reproduce the cell's outputs exactly. Traced, each call gets a
     * span and its time goes into @p out. @return the failed check,
     * or an empty string.
     */
    static std::string
    recheck(const chan::ChannelConfig &cfg, const chan::ChannelResult &r,
            Tracer *tracer, int root, CellOut &out)
    {
        const chan::Encoding &enc = cfg.protocol.encoding;
        chan::Calibration cal;
        {
            Scope s(tracer, "chan.calibrate", root);
            Rng rootRng(cfg.seed);
            Rng calRng = rootRng.split();
            chan::CalibrationConfig calCfg = cfg.calibration;
            calCfg.levelsMix = enc.levels();
            calCfg.targetSet = cfg.protocol.targetSet;
            calCfg.replacementSize = cfg.protocol.replacementSize;
            cal = chan::calibrate(cfg.platform, cfg.noise, calCfg, calRng);
            out.times["chan.calibrate.ms"] = s.stop();
        }
        chan::DecodeResult dec;
        {
            Scope s(tracer, "chan.decode", root);
            dec = chan::decodeTransmission(r.latencies,
                                           cal.classifierFor(enc), enc,
                                           r.sentFrame, cfg.protocol.frames);
            out.times["chan.decode.ms"] = s.stop();
        }
        if (cal.medianByD != r.calibrationMedians)
            return "re-called calibrate differs from calibrationMedians";
        if (dec.ber != r.ber)
            return "re-run decode differs from the cell's ber";
        return {};
    }

    static void
    score(CellOut &out, const chan::ChannelResult &r,
          const chan::ChannelConfig &cfg)
    {
        const double bits = double(r.framesExpected) *
                            double(cfg.protocol.frameBits - 16);
        out.berWeighted = r.ber * bits;
        out.berBits = bits;
        out.goodputKbps = r.goodputKbps;
        out.delivered = r.framesScored;
        out.deliverable = r.framesExpected;
        Fingerprint fp;
        fingerprintChannel(fp, r);
        out.fingerprint = fp.value();
    }

    std::vector<chan::ChannelConfig> configs_;
};

// noisy-frontier -----------------------------------------------------

/**
 * capacity-frontier's cells on the 4-core inclusive desktop under its
 * noise preset: mixOf(2..4) co-runners, pinned and migrating every
 * 400k cycles. Each cell runs the single-shot channel and then a
 * transport session over the same config and seed.
 */
class NoisyFrontier final : public Workload
{
  public:
    NoisyFrontier()
    {
        const std::string name = "desktop-inclusive-4core";
        for (unsigned mix = 2; mix <= 4; ++mix) {
            for (Cycles migration : {Cycles(0), Cycles(400'000)}) {
                chan::CrossCoreChannelConfig cfg;
                cfg.usePlatform(name);
                cfg.protocol.frames = 2;
                cfg.calibration.measurements = 40;
                cfg.scheduler = sim::platform(name).noisePreset;
                cfg.scheduler.coRunners = sim::SchedulerConfig::mixOf(mix);
                cfg.scheduler.migrationPeriod = migration;
                cfg.transport.layout.seqBits = 4;
                cfg.transport.layout.payloadBits = 24;
                cfg.transport.layout.crcWidth = 16;
                cfg.transport.layout.interleaveDepth = 2;
                cfg.transport.messageFrames = 1;
                cfg.transport.windowFrames = 1;
                cfg.transport.maxRetries = 3;
                cfg.transport.maxRounds = 6;
                configs_.push_back(cfg);
            }
        }
    }

    unsigned configs() const override { return unsigned(configs_.size()); }
    unsigned cellsPerPass() const override { return 6; }

    CellOut
    run(unsigned config, std::uint64_t seed, Tracer *tracer) override
    {
        chan::CrossCoreChannelConfig cfg = configs_[config];
        cfg.seed = seed;
        CellOut out;
        Scope cell(tracer, "cell", -1);

        chan::ChannelResult single;
        double singleMs = 0.0;
        {
            Scope s(tracer, "chan.singleshot", cell.id());
            single = chan::runCrossCoreChannel(cfg);
            singleMs = s.stop();
        }
        cfg.transport.enabled = true;
        chan::TransportResult x;
        double xportMs = 0.0;
        {
            Scope s(tracer, "chan.transport", cell.id());
            x = chan::runCrossCoreTransport(cfg);
            xportMs = s.stop();
        }
        expect(x.framesDelivered + x.framesFailed == x.framesTotal,
               "noisy-frontier: framesDelivered + framesFailed != "
               "framesTotal");
        expect(x.residualBitErrors == 0,
               "noisy-frontier: a delivered frame carries bit errors");

        const double bits = double(single.framesExpected) *
                            double(cfg.protocol.frameBits - 16);
        out.berWeighted = single.ber * bits;
        out.berBits = bits;
        out.goodputKbps = x.goodputKbps;
        out.delivered = x.framesDelivered;
        out.deliverable = x.framesTotal;
        Fingerprint fp;
        fingerprintChannel(fp, single);
        fp.add(x.framesDelivered).add(x.framesFailed).add(x.framesSent)
            .add(x.retransmissions).add(x.payloadBitsDelivered)
            .add(x.goodputKbps).add(x.rounds).add(x.finalRateLevel)
            .add(x.syncLosses).add(x.resyncs).add(x.fecCorrectedBits)
            .add(x.simulatedCycles).add(x.schedulerStats)
            .addAll(x.rateLevelByRound).addAll(x.ferByRound);
        out.fingerprint = fp.value();
        if (!tracer)
            return out;

        out.times["chan.singleshot.ms"] = singleMs;
        out.times["chan.transport.ms"] = xportMs;
        out.times["sim.run.ms"] = singleMs + xportMs;
        addCounters(out, single.senderCounters);
        addCounters(out, single.receiverCounters);
        addScheduler(out, single.schedulerStats);
        addScheduler(out, x.schedulerStats);
        // Host time per simulated unit is taken on the single-shot
        // run, the one whose party counters the runner reports.
        out.counts["sim_cycles"] += double(single.simulatedCycles);
        out.counts["sim_ns"] += singleMs * 1e6;
        out.counts["sim_extra_accesses"] +=
            double(single.schedulerStats.coRunnerAccesses +
                   single.schedulerStats.pollutionAccesses);
        out.counts["chan.transport.rounds"] += x.rounds;
        out.counts["chan.transport.frames_sent"] += double(x.framesSent);
        out.counts["chan.transport.retransmissions"] +=
            double(x.retransmissions);
        out.counts["chan.transport.sync_events"] +=
            double(x.syncLosses + x.resyncs);
        out.counts["chan.transport.fec_corrected_bits"] +=
            double(x.fecCorrectedBits);
        out.counts["transport_ms"] += xportMs;
        return out;
    }

  private:
    std::vector<chan::CrossCoreChannelConfig> configs_;
};

// sliced-tenants -----------------------------------------------------

/**
 * Many-tenant sweeps on the sliced 16- and 64-core presets: blind
 * eviction-set discovery through the sharer directory, then every
 * pair signalling at once. Pairs draw their target sets from 8 set
 * indices, a crowded socket where about half the pairs share a
 * slice-set with another pair, so cross-pair interference is a steady
 * share of the work and of the errors.
 */
class SlicedTenants final : public Workload
{
  public:
    SlicedTenants()
    {
        const std::pair<const char *, unsigned> points[] = {
            {"dc-sliced-16core", 8},
            {"dc-sliced-64core", 16},
            {"dc-sliced-64core", 32},
        };
        for (const auto &[name, pairs] : points) {
            chan::TenantSweepConfig cfg;
            cfg.usePlatform(name);
            cfg.pairs = pairs;
            cfg.targetSetRange = 8;
            configs_.push_back(cfg);
        }
    }

    unsigned configs() const override { return unsigned(configs_.size()); }
    unsigned cellsPerPass() const override { return 6; }

    CellOut
    run(unsigned config, std::uint64_t seed, Tracer *tracer) override
    {
        chan::TenantSweepConfig cfg = configs_[config];
        cfg.seed = seed;
        CellOut out;
        Scope cell(tracer, "cell", -1);
        chan::TenantSweepResult r;
        double ms = 0.0;
        {
            Scope s(tracer, "chan.tenant", cell.id());
            r = chan::runTenantSweep(cfg);
            ms = s.stop();
        }
        expect(r.pairs.size() == cfg.pairs && r.discovered <= cfg.pairs,
               "sliced-tenants: pair accounting is inconsistent");

        const double bits = double(cfg.pairs) * cfg.payloadBits;
        out.berWeighted = r.meanBer * bits;
        out.berBits = bits;
        out.goodputKbps = r.aggregateKbps;
        out.delivered = r.discovered;
        out.deliverable = cfg.pairs;
        Fingerprint fp;
        fp.add(r.discovered).add(r.collidingPairs).add(r.meanBer)
            .add(r.maxBer).add(r.aggregateKbps).add(r.busiestCoreUtil)
            .add(r.coherence).add(r.scanProbeEquivalent);
        for (const chan::TenantPairResult &p : r.pairs)
            fp.add(p.ber).add(p.discoveryTests).add(p.discoveryAccesses)
                .add(p.senderLineCount).add(p.slice);
        out.fingerprint = fp.value();
        if (!tracer)
            return out;

        out.times["sim.run.ms"] = ms;
        out.times["chan.tenant.ms_per_pair"] = ms / double(cfg.pairs);
        for (const chan::TenantPairResult &p : r.pairs) {
            out.counts["chan.tenant.discovery_tests"] +=
                double(p.discoveryTests);
            out.counts["chan.tenant.discovery_accesses"] +=
                double(p.discoveryAccesses);
        }
        out.counts["sim.directory.private_probes"] +=
            double(r.coherence.privateProbes);
        out.counts["sim.directory.scan_probe_equivalent"] +=
            double(r.scanProbeEquivalent);
        return out;
    }

  private:
    std::vector<chan::TenantSweepConfig> configs_;
};

// --------------------------------------------------------------- main

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned pass = 0;   //!< index of the pass this process runs
    unsigned checks = 1; //!< cells re-run and checked after timing
    bool trace = false;
    std::int64_t spawnNs = 0; //!< steady-clock time the parent spawned us
    std::string spans;        //!< where a traced run writes its spans
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            fail("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--pass")
            a.pass = unsigned(std::stoul(v));
        else if (k == "--checks")
            a.checks = unsigned(std::stoul(v));
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--spawn-ns")
            a.spawnNs = std::stoll(v);
        else if (k == "--spans")
            a.spans = v;
        else
            fail("unknown flag " + k);
    }
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "quiet-channel")
        return std::make_unique<QuietChannel>();
    if (name == "noisy-frontier")
        return std::make_unique<NoisyFrontier>();
    if (name == "sliced-tenants")
        return std::make_unique<SlicedTenants>();
    fail("unknown workload " + name);
}

/**
 * Peak resident set of this process image, from VmHWM. getrusage's
 * ru_maxrss would also count the parent's footprint carried across
 * fork + exec.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    fail("no VmHWM in /proc/self/status");
}

template <typename T>
void
jsonList(std::ostream &os, const std::vector<T> &v)
{
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? "," : "") << v[i];
    os << "]";
}

/** One timed pass: its host times and pooled simulated outputs. */
struct PassOut
{
    unsigned index = 0;
    bool traced = false;
    std::vector<double> cellMs;
    std::vector<double> gaugeNs; //!< mean of the gauge before and after
    std::vector<CellOut> cells;
};

void
writePass(std::ostream &os, const PassOut &p)
{
    // Simulated outputs pooled per config: ber x bits, bits, goodput
    // sum, delivered, deliverable, cells.
    std::map<unsigned, std::vector<double>> byConfig;
    std::uint64_t fingerprint = 0xcbf29ce484222325ULL;
    for (const CellOut &c : p.cells) {
        std::vector<double> &v = byConfig[c.config];
        v.resize(6, 0.0);
        v[0] += c.berWeighted;
        v[1] += c.berBits;
        v[2] += c.goodputKbps;
        v[3] += c.delivered;
        v[4] += c.deliverable;
        v[5] += 1;
        fingerprint = mix64(fingerprint ^ c.fingerprint);
    }
    os << "{\"index\":" << p.index << ",\"traced\":" << p.traced
       << ",\"cell_ms\":";
    jsonList(os, p.cellMs);
    os << ",\"gauge_ns\":";
    jsonList(os, p.gaugeNs);
    os << ",\"by_config\":[";
    for (auto it = byConfig.begin(); it != byConfig.end(); ++it) {
        os << (it == byConfig.begin() ? "" : ",");
        jsonList(os, it->second);
    }
    os << "],\"fingerprint\":\"" << std::hex << fingerprint << std::dec
       << "\"";
    if (p.traced) {
        os << ",\"layers\":[";
        for (std::size_t i = 0; i < p.cells.size(); ++i) {
            os << (i ? "," : "") << "{";
            bool first = true;
            for (const auto *m : {&p.cells[i].times, &p.cells[i].counts}) {
                for (const auto &[k, v] : *m) {
                    os << (first ? "" : ",") << "\"" << k << "\":" << v;
                    first = false;
                }
            }
            os << "}";
        }
        os << "]";
    }
    os << "}";
}

/** Share of each cell span its child spans cover, one per cell. */
std::vector<double>
spanCoverage(const Tracer &tracer)
{
    std::vector<double> coverage;
    const auto &spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != -1)
            continue;
        std::int64_t covered = 0;
        for (std::size_t j = i + 1;
             j < spans.size() && spans[j].parent == int(i); ++j)
            covered += spans[j].end - spans[j].start;
        coverage.push_back(double(covered) /
                           double(spans[i].end - spans[i].start));
    }
    return coverage;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::unique_ptr<Workload> w = makeWorkload(args.workload);
    const unsigned perPass = w->cellsPerPass();

    w->warmUp(cellSeed(args.seed, ~0u, 0));

    // The timed pass. A traced run follows it with a traced pass over
    // the same cells; the difference between the two is the tracing
    // overhead.
    const std::int64_t timedStart = nowNs();
    double setupGaugeNs = 0.0;
    Tracer tracer;
    std::vector<PassOut> passes;
    for (const bool traced : {false, true}) {
        if (traced && !args.trace)
            continue;
        PassOut p;
        p.index = args.pass;
        p.traced = traced;
        // The gauge runs between cells, outside their timed span; each
        // cell is charged the mean of the readings either side.
        double gauge = gaugeNs();
        if (passes.empty())
            setupGaugeNs = gauge;
        for (unsigned i = 0; i < perPass; ++i) {
            const std::int64_t c0 = nowNs();
            p.cells.push_back(w->run(i % w->configs(),
                                     cellSeed(args.seed, p.index, i),
                                     traced ? &tracer : nullptr));
            p.cells.back().config = i % w->configs();
            p.cellMs.push_back(double(nowNs() - c0) / 1e6);
            const double next = gaugeNs();
            p.gaugeNs.push_back((gauge + next) / 2.0);
            gauge = next;
        }
        passes.push_back(std::move(p));
    }
    const double rss = peakRssMb();

    // Checks, after timing: re-run the first cells of the untraced
    // pass and check their outputs.
    const PassOut &timed = passes.front();
    const unsigned checks = std::min(args.checks, perPass);
    for (unsigned i = 0; i < checks; ++i) {
        const std::string why =
            w->check(i % w->configs(), cellSeed(args.seed, timed.index, i),
                     timed.cells[i]);
        expect(why.empty(), args.workload + ": " + why);
    }

    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
       << ",\"setup_ns\":" << (timedStart - args.spawnNs)
       << ",\"setup_gauge_ns\":" << setupGaugeNs
       << ",\"peak_rss_mb\":" << rss << ",\"checked_cells\":" << checks
       << ",\"failures\":[";
    for (std::size_t i = 0; i < gFailures.size(); ++i)
        os << (i ? "," : "") << "\"" << gFailures[i] << "\"";
    os << "],\"passes\":[";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        os << (i ? "," : "");
        writePass(os, passes[i]);
    }
    os << "]";
    if (args.trace) {
        os << ",\"span_coverage\":";
        jsonList(os, spanCoverage(tracer));
        if (!args.spans.empty())
            tracer.write(args.spans);
    }
    os << "}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}
