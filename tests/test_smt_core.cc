/**
 * @file
 * Unit tests for the SMT-core executor (sim/smt_core.hh): op
 * execution, virtual-time interleaving, spin semantics, TSC
 * quantization and noise accounting; and the slot-pacing loop every
 * channel party runs on top of it (chan/slot_program.hh).
 */

#include <functional>

#include <gtest/gtest.h>

#include "chan/slot_program.hh"
#include "common/rng.hh"
#include "sim/smt_core.hh"

namespace wb::sim
{
namespace
{

HierarchyParams
quietParams()
{
    HierarchyParams p = xeonE5_2650Params();
    p.lat.noiseSigma = 0.0;
    p.l1.policy = PolicyKind::TrueLru;
    return p;
}

/** Program recording every result it sees. */
class Recorder : public Program
{
  public:
    explicit Recorder(std::vector<MemOp> ops) : ops_(std::move(ops)) {}

    std::optional<MemOp>
    next(ProcView &) override
    {
        if (pos_ >= ops_.size())
            return std::nullopt;
        return ops_[pos_++];
    }

    void
    onResult(const MemOp &op, const OpResult &res, ProcView &view) override
    {
        results.push_back(res);
        kinds.push_back(op.kind);
        times.push_back(view.now());
    }

    std::vector<OpResult> results;
    std::vector<MemOp::Kind> kinds;
    std::vector<Cycles> times;

  private:
    std::vector<MemOp> ops_;
    std::size_t pos_ = 0;
};

TEST(SmtCore, ExecutesTraceToCompletion)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    Recorder prog({MemOp::load(0x1000), MemOp::load(0x1000),
                   MemOp::store(0x1000), MemOp::halt()});
    auto tid = core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    EXPECT_TRUE(core.halted(tid));
    ASSERT_EQ(prog.results.size(), 3u);
    EXPECT_FALSE(prog.results[0].l1Hit); // cold
    EXPECT_TRUE(prog.results[1].l1Hit);
}

TEST(SmtCore, QuietTimingIsExact)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    Recorder prog({MemOp::delay(100), MemOp::delay(23)});
    auto tid = core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    EXPECT_EQ(core.threadTime(tid), 123u);
}

TEST(SmtCore, SpinUntilJumpsForward)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    Recorder prog({MemOp::spinUntil(5000), MemOp::spinUntil(100)});
    auto tid = core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    // Second spin target already passed: time unchanged.
    EXPECT_EQ(core.threadTime(tid), 5000u);
    EXPECT_EQ(prog.results[0].tsc, 5000u);
}

TEST(SmtCore, StartTimeStaggersThreads)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    Recorder a({MemOp::delay(10)});
    Recorder b({MemOp::delay(10)});
    core.addThread(&a, AddressSpace(1), 0);
    auto tb = core.addThread(&b, AddressSpace(2), 777);
    core.run(1'000'000);
    EXPECT_EQ(core.threadTime(tb), 787u);
}

TEST(SmtCore, InterleavesByVirtualTime)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    // Thread A stores to a line at t~0; thread B (starting later)
    // must observe the line already cached (L1 hit as the second
    // access in global time order).
    Recorder a({MemOp::store(0x40)});
    Recorder b({MemOp::load(0x40)});
    core.addThread(&a, AddressSpace(1), 0);
    core.addThread(&b, AddressSpace(1), 1000); // same address space
    core.run(1'000'000);
    ASSERT_EQ(b.results.size(), 1u);
    EXPECT_TRUE(b.results[0].l1Hit);
}

TEST(SmtCore, HorizonStopsRunaways)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    TraceProgram spin({MemOp::delay(10)}, /*loop=*/true);
    auto tid = core.addThread(&spin, AddressSpace(1));
    const Cycles end = core.run(5000);
    EXPECT_FALSE(core.halted(tid));
    EXPECT_GE(end, 5000u);
    EXPECT_LT(end, 5100u);
}

TEST(SmtCore, TscGranularityQuantizes)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    NoiseModel nm = NoiseModel::quiet();
    nm.tscGranularity = 64;
    SmtCore core(h, nm, rng);
    Recorder prog({MemOp::delay(100), MemOp::tscRead()});
    core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    ASSERT_EQ(prog.results.size(), 2u);
    EXPECT_EQ(prog.results[1].tsc % 64, 0u);
    EXPECT_EQ(prog.results[1].tsc, 64u); // 100 cycles -> quantum 1
}

TEST(SmtCore, TscReadCost)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    NoiseModel nm = NoiseModel::quiet();
    nm.tscReadCost = 30;
    SmtCore core(h, nm, rng);
    Recorder prog({MemOp::tscRead(), MemOp::tscRead()});
    auto tid = core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    EXPECT_EQ(core.threadTime(tid), 60u);
}

TEST(SmtCore, SpinLoadsCredited)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    NoiseModel nm = NoiseModel::quiet();
    nm.spinIterCycles = 7;
    nm.spinLoadsPerIter = 1;
    SmtCore core(h, nm, rng);
    Recorder prog({MemOp::spinUntil(7000)});
    auto tid = core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    EXPECT_EQ(h.counters(tid).spinLoads, 1000u);
}

TEST(SmtCore, SpinIssuesStackLoad)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    Recorder prog({MemOp::spinUntil(1000)});
    auto tid = core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    // The spin's stack-line bookkeeping load is a real demand load.
    EXPECT_EQ(h.counters(tid).loads, 1u);
}

TEST(SmtCore, PipelinedLoadCheaperOnHit)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    NoiseModel nm = NoiseModel::quiet();
    nm.pipelinedHitCost = 3;
    SmtCore core(h, nm, rng);
    Recorder prog({MemOp::load(0x1000), MemOp::load(0x1000),
                   MemOp::pipelinedLoad(0x1000)});
    core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    ASSERT_EQ(prog.results.size(), 3u);
    EXPECT_GT(prog.results[1].latency, prog.results[2].latency);
    EXPECT_EQ(prog.results[2].latency, 3u);
}

TEST(SmtCore, PipelinedLoadFullCostOnMiss)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    NoiseModel nm = NoiseModel::quiet();
    SmtCore core(h, nm, rng);
    Recorder prog({MemOp::pipelinedLoad(0x9000)});
    core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    EXPECT_GE(prog.results[0].latency, 200u); // DRAM, not hidden
}

TEST(SmtCore, FlushOpWorks)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    Recorder prog({MemOp::load(0x2000), MemOp::flush(0x2000),
                   MemOp::load(0x2000)});
    core.addThread(&prog, AddressSpace(1));
    core.run(1'000'000);
    ASSERT_EQ(prog.results.size(), 3u);
    EXPECT_FALSE(prog.results[2].l1Hit); // flushed
}

TEST(SmtCore, SpinOvershootAccumulates)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    NoiseModel nm = NoiseModel::quiet();
    nm.spinOvershootMean = 20.0;
    SmtCore core(h, nm, rng);
    std::vector<MemOp> ops;
    for (int i = 1; i <= 50; ++i)
        ops.push_back(MemOp::spinUntil(static_cast<Cycles>(i) * 1000));
    Recorder prog(ops);
    auto tid = core.addThread(&prog, AddressSpace(1));
    core.run(10'000'000);
    // Each spin overshoots by an exponential; time ends past the last
    // target but not wildly so.
    EXPECT_GT(core.threadTime(tid), 50'000u);
    EXPECT_LT(core.threadTime(tid), 60'000u);
}

TEST(SmtCore, TraceProgramLoops)
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, NoiseModel::quiet(), rng);
    TraceProgram prog({MemOp::delay(100)}, /*loop=*/true);
    auto tid = core.addThread(&prog, AddressSpace(1));
    core.run(1000);
    EXPECT_FALSE(core.halted(tid));
    EXPECT_GE(core.threadTime(tid), 1000u);
}

// ------------------------------------------------------------------
// chan::SlotProgram: the Algorithm 3 pacing loop on a bare core.
// ------------------------------------------------------------------

/** Forwards to a program, logging each op it issues and its start. */
class OpLog : public Program
{
  public:
    explicit OpLog(Program &inner) : inner_(inner) {}

    std::optional<MemOp>
    next(ProcView &view) override
    {
        std::optional<MemOp> op = inner_.next(view);
        if (op) {
            kinds.push_back(op->kind);
            starts.push_back(view.now());
        }
        return op;
    }

    void
    onResult(const MemOp &op, const OpResult &res, ProcView &view) override
    {
        inner_.onResult(op, res, view);
    }

    std::vector<MemOp::Kind> kinds;
    std::vector<Cycles> starts;

  private:
    Program &inner_;
};

/** A SlotProgram whose body and halting are set by each test. */
class ScriptedSlots : public chan::SlotProgram
{
  public:
    using SlotProgram::push;
    using SlotProgram::pushTimed;
    using SlotProgram::pushUntil;
    using SlotProgram::tlast;

    ScriptedSlots(Cycles period, std::size_t slots)
        : SlotProgram(period), slots_(slots)
    {
    }

    /** Queues slot s's body (none when unset). */
    std::function<void(ScriptedSlots &, std::size_t)> body;

    /** Samples to record before onSample() halts (0 = never). */
    std::size_t maxSamples = 0;

    std::vector<Cycles> tlasts;  //!< Tlast at each beginSlot()
    std::vector<double> samples; //!< every onSample() reading

  private:
    bool
    beginSlot(std::size_t slot, ProcView &) override
    {
        tlasts.push_back(tlast());
        if (slot >= slots_)
            return false;
        if (body)
            body(*this, slot);
        return true;
    }

    bool
    onSample(double cycles, ProcView &) override
    {
        samples.push_back(cycles);
        return maxSamples == 0 || samples.size() < maxSamples;
    }

    std::size_t slots_;
};

using K = MemOp::Kind;

/** Run @p prog alone on a quiet core; @return its op log. */
OpLog
runSlots(ScriptedSlots &prog, NoiseModel noise = NoiseModel::quiet())
{
    Rng rng(1);
    Hierarchy h(quietParams(), &rng);
    SmtCore core(h, noise, rng);
    OpLog log(prog);
    const ThreadId tid = core.addThread(&log, AddressSpace(1));
    core.run(1'000'000);
    EXPECT_TRUE(core.halted(tid));
    return log;
}

TEST(SlotProgram, PrologueThenTscThenBodyThenSpin)
{
    ScriptedSlots prog(1000, 2);
    prog.push(MemOp::delay(40)); // prologue
    prog.body = [](ScriptedSlots &p, std::size_t) {
        p.push(MemOp::delay(7));
    };
    const OpLog log = runSlots(prog);
    EXPECT_EQ(log.kinds, (std::vector<K>{K::Delay, K::TscRead, K::Delay,
                                         K::SpinUntil, K::Delay,
                                         K::SpinUntil, K::Halt}));
    // Tlast: the initial read after the prologue, then each post-spin
    // TSC, one period apart on a quiet core.
    EXPECT_EQ(prog.tlasts, (std::vector<Cycles>{40, 1040, 2040}));
    EXPECT_EQ(log.starts[2], 40u); // slot 0's body starts at Tlast
}

TEST(SlotProgram, EmptyBodyGoesStraightToTheSpin)
{
    ScriptedSlots prog(500, 2);
    const OpLog log = runSlots(prog);
    EXPECT_EQ(log.kinds, (std::vector<K>{K::TscRead, K::SpinUntil,
                                         K::SpinUntil, K::Halt}));
    EXPECT_EQ(prog.tlasts, (std::vector<Cycles>{0, 500, 1000}));
}

TEST(SlotProgram, PushUntilStopsAtItsDeadline)
{
    ScriptedSlots prog(1000, 1);
    prog.body = [](ScriptedSlots &p, std::size_t) {
        p.pushUntil(MemOp::delay(30), p.tlast() + 100);
        p.push(MemOp::store(0x80));
    };
    const OpLog log = runSlots(prog);
    // Delays start at 0, 30, 60, 90; the one at 120 is past the
    // deadline, so the loop falls through to the next queued op.
    EXPECT_EQ(log.kinds,
              (std::vector<K>{K::TscRead, K::Delay, K::Delay, K::Delay,
                              K::Delay, K::Store, K::SpinUntil, K::Halt}));
    EXPECT_EQ(log.starts[5], 120u);

    // A deadline already behind the clock issues nothing.
    ScriptedSlots late(1000, 1);
    late.body = [](ScriptedSlots &p, std::size_t) {
        p.pushUntil(MemOp::delay(30), p.tlast());
    };
    EXPECT_EQ(runSlots(late).kinds,
              (std::vector<K>{K::TscRead, K::SpinUntil, K::Halt}));
}

TEST(SlotProgram, OnSampleGetsTheBracketedCycles)
{
    NoiseModel noise = NoiseModel::quiet();
    noise.tscReadCost = 3;
    ScriptedSlots prog(1000, 2);
    prog.body = [](ScriptedSlots &p, std::size_t slot) {
        p.pushTimed(MemOp::delay(slot == 0 ? 37 : 50));
    };
    const OpLog log = runSlots(prog, noise);
    EXPECT_EQ(log.kinds,
              (std::vector<K>{K::TscRead, K::TscRead, K::Delay, K::TscRead,
                              K::SpinUntil, K::TscRead, K::Delay,
                              K::TscRead, K::SpinUntil, K::Halt}));
    // Closing minus opening read: the timed op plus one read's cost.
    EXPECT_EQ(prog.samples, (std::vector<double>{40.0, 53.0}));
}

TEST(SlotProgram, HaltsFromBeginSlot)
{
    ScriptedSlots prog(1000, 0);
    prog.push(MemOp::delay(5));
    EXPECT_EQ(runSlots(prog).kinds,
              (std::vector<K>{K::Delay, K::TscRead, K::Halt}));
}

TEST(SlotProgram, HaltsFromOnSampleDroppingTheRestOfTheBody)
{
    ScriptedSlots prog(1000, 5);
    prog.maxSamples = 2;
    prog.body = [](ScriptedSlots &p, std::size_t) {
        p.pushTimed(MemOp::delay(10));
        p.push(MemOp::store(0x80));
    };
    const OpLog log = runSlots(prog);
    EXPECT_EQ(log.kinds,
              (std::vector<K>{K::TscRead, K::TscRead, K::Delay, K::TscRead,
                              K::Store, K::SpinUntil, K::TscRead, K::Delay,
                              K::TscRead, K::Halt}));
    EXPECT_EQ(prog.samples.size(), 2u);
}

TEST(SlotProgram, OnSampleMayQueueMoreOps)
{
    // The multi-set receiver's pattern: each closing read queues the
    // next timed section until the slot's k sections are done.
    class Chained : public ScriptedSlots
    {
      public:
        Chained() : ScriptedSlots(1000, 1) {}

      private:
        bool
        onSample(double, ProcView &) override
        {
            if (++sections_ < 3)
                pushTimed(MemOp::delay(1));
            return true;
        }
        unsigned sections_ = 0;
    };
    Chained prog;
    prog.body = [](ScriptedSlots &p, std::size_t) {
        p.pushTimed(MemOp::delay(1));
    };
    const OpLog log = runSlots(prog);
    std::size_t reads = 0;
    for (K k : log.kinds)
        reads += k == K::TscRead;
    EXPECT_EQ(reads, 1u + 3 * 2); // Tlast read + three timed sections
    EXPECT_EQ(log.kinds[log.kinds.size() - 2], K::SpinUntil);
}

} // namespace
} // namespace wb::sim
