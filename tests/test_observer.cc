/**
 * @file
 * Degraded-observer tests (sim/observer.hh, chan/degraded.hh): the
 * cycle-accurate path's bit-exact equivalence pin, the runner pins
 * (transport links, repetition decoder, L2/multi-set channels, every
 * baseline channel, the degraded-observer receivers, the detector
 * traces, the Sec. IX attack and the tenant sweep),
 * the observer choke point's quantization guarantees, the
 * pending-write-back flush model, and the three observer classes'
 * end-to-end channel behaviour.
 *
 * Every BER claim is a pooled multi-seed statistical assertion
 * (tests/stat_assert.hh): the Wilson bound of the error proportion
 * over >= 16 seeds must clear the threshold, so no expectation rests
 * on one lucky trajectory.
 */

#include <cmath>
#include <cstring>
#include <iterator>

#include <gtest/gtest.h>

#include "baselines/flush_channels.hh"
#include "baselines/hit_hit_channel.hh"
#include "baselines/lru_channel.hh"
#include "baselines/prime_probe.hh"
#include "chan/channel.hh"
#include "chan/cross_core.hh"
#include "chan/degraded.hh"
#include "chan/l2_channel.hh"
#include "chan/multiset.hh"
#include "chan/tenant.hh"
#include "perfmon/detector.hh"
#include "sidechan/attack.hh"
#include "sim/hierarchy.hh"
#include "sim/observer.hh"
#include "sim/smt_core.hh"
#include "stat_assert.hh"
#include "chan/set_mapping.hh"

namespace wb::chan
{
namespace
{

/** FNV-1a over the raw bit patterns of a latency vector. */
std::uint64_t
fnvLatencies(const std::vector<double> &v)
{
    std::uint64_t h = 1469598103934665603ull;
    for (double d : v) {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/**
 * One run's error proportion, with unlocated frames counted half
 * wrong (same convention as test_channel.cc: a frame the decoder
 * never found carries no information, the 50%-BER regime).
 */
test::Proportion
berProportion(const ChannelResult &res, const ChannelConfig &cfg)
{
    const double payload = cfg.protocol.frameBits - 16;
    const double expected = res.framesExpected * payload;
    const double scored = res.framesScored * payload;
    return {res.ber * scored + 0.5 * (expected - scored), expected};
}

test::ProportionSweep
berSweep(ChannelConfig cfg, unsigned seeds = test::ProportionSweep::kMinRuns)
{
    return test::sweepSeeds(
        [cfg](std::uint64_t seed) mutable {
            cfg.seed = seed;
            return berProportion(runChannel(cfg), cfg);
        },
        seeds);
}

// ------------------------------------------------------------------
// Equivalence pin: the default (cycle-accurate) observer path must be
// bit-identical to the pre-observer implementation. The constants
// below were captured from the tree *before* the observer layer was
// introduced; any drift in RNG draw order, quantization, scheduling
// or calibration on the legacy path trips this.
// ------------------------------------------------------------------

TEST(ObserverEquivalence, XeonDefaultPathBitIdentical)
{
    ChannelConfig cfg;
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 2;
    cfg.seed = 7;
    const ChannelResult r = runChannel(cfg);
    EXPECT_EQ(r.ber, 0.0);
    EXPECT_EQ(r.simulatedCycles, 644251u);
    EXPECT_EQ(r.latencies.size(), 115u);
    EXPECT_EQ(fnvLatencies(r.latencies), 2371547489955050502ull);
    ASSERT_GE(r.calibrationMedians.size(), 2u);
    EXPECT_DOUBLE_EQ(r.calibrationMedians[0], 142.14550680188228);
    EXPECT_DOUBLE_EQ(r.calibrationMedians[1], 154.06509472101021);
    EXPECT_EQ(r.receiverCounters.l1DirtyWritebacks, 26u);
    EXPECT_EQ(r.repetition, 1u);
    EXPECT_TRUE(r.evictionDiscoveryVerified);
}

TEST(ObserverEquivalence, DesktopNoisyPathBitIdentical)
{
    ChannelConfig cfg;
    cfg.usePlatform("desktop-inclusive");
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 2;
    cfg.seed = 11;
    cfg.noiseProcesses = 2;
    const ChannelResult r = runChannel(cfg);
    EXPECT_DOUBLE_EQ(r.ber, 0.1875);
    EXPECT_EQ(r.simulatedCycles, 646104u);
    EXPECT_EQ(r.latencies.size(), 115u);
    EXPECT_EQ(fnvLatencies(r.latencies), 4715321621082035715ull);
    ASSERT_GE(r.calibrationMedians.size(), 2u);
    EXPECT_DOUBLE_EQ(r.calibrationMedians[0], 162.02829594941409);
    EXPECT_DOUBLE_EQ(r.calibrationMedians[1], 173.96812451193378);
    EXPECT_EQ(r.receiverCounters.l1DirtyWritebacks, 28u);
}

// ------------------------------------------------------------------
// Scheduler pins: the two OS-noise paths the pins above never reach.
// A timesliced mix-2 co-runner run drives the Scheduler's gang-freeze
// split (descheduleShift plus single-op grace steps); a cross-core run
// with migration rebinds the receiver front-end between cores mid-run.
// The constants guard the execution engine: any change to how a
// Program's ops are picked, executed or interleaved must keep them.
// ------------------------------------------------------------------

void
expectCounters(const sim::PerfCounters &c, std::uint64_t loads,
               std::uint64_t stores, std::uint64_t l1Misses,
               std::uint64_t l1DirtyWritebacks,
               std::uint64_t llcDirtyEvictions, std::uint64_t spinLoads)
{
    EXPECT_EQ(c.loads, loads);
    EXPECT_EQ(c.stores, stores);
    EXPECT_EQ(c.l1Misses, l1Misses);
    EXPECT_EQ(c.l1DirtyWritebacks, l1DirtyWritebacks);
    EXPECT_EQ(c.llcDirtyEvictions, llcDirtyEvictions);
    EXPECT_EQ(c.spinLoads, spinLoads);
}

TEST(ObserverEquivalence, GangFreezeTimeslicePathBitIdentical)
{
    ChannelConfig cfg;
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 2;
    cfg.seed = 5;
    cfg.scheduler = sim::platform(cfg.platformName).noisePreset;
    cfg.scheduler.coRunners = sim::SchedulerConfig::mixOf(2);
    cfg.scheduler.timeslice = 20000;
    const ChannelResult r = runChannel(cfg);
    EXPECT_DOUBLE_EQ(r.ber, 0.1875);
    EXPECT_EQ(r.simulatedCycles, 1961100u);
    EXPECT_EQ(r.latencies.size(), 147u);
    EXPECT_EQ(fnvLatencies(r.latencies), 17449100023858267999ull);
    EXPECT_EQ(r.schedulerStats.contextSwitches, 96u);
    EXPECT_EQ(r.schedulerStats.migrations, 0u);
    EXPECT_EQ(r.schedulerStats.pollutionAccesses, 768u);
    EXPECT_EQ(r.schedulerStats.coRunnerAccesses, 66048u);
    {
        SCOPED_TRACE("sender");
        expectCounters(r.senderCounters, 64, 28, 33, 1, 0, 39435);
    }
    {
        SCOPED_TRACE("receiver");
        expectCounters(r.receiverCounters, 1658, 0, 1517, 31, 0, 88994);
    }
}

TEST(ObserverEquivalence, CrossCoreMigrationPathBitIdentical)
{
    CrossCoreChannelConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 2;
    cfg.seed = 3;
    cfg.scheduler = sim::platform(cfg.platformName).noisePreset;
    cfg.scheduler.coRunners = sim::SchedulerConfig::mixOf(1);
    cfg.scheduler.migrationPeriod = 30000;
    const ChannelResult r = runCrossCoreChannel(cfg);
    EXPECT_DOUBLE_EQ(r.ber, 0.4375);
    EXPECT_EQ(r.simulatedCycles, 1164812u);
    EXPECT_EQ(r.latencies.size(), 70u);
    EXPECT_EQ(fnvLatencies(r.latencies), 17005653025165851899ull);
    EXPECT_EQ(r.schedulerStats.contextSwitches, 12u);
    EXPECT_EQ(r.schedulerStats.migrations, 38u);
    EXPECT_EQ(r.schedulerStats.pollutionAccesses, 120u);
    EXPECT_EQ(r.schedulerStats.coRunnerAccesses, 44288u);
    {
        SCOPED_TRACE("sender");
        expectCounters(r.senderCounters, 64, 128, 97, 0, 0, 109806);
    }
    {
        SCOPED_TRACE("receiver");
        expectCounters(r.receiverCounters, 1403, 0, 1335, 1, 96, 73669);
    }
}

TEST(ObserverEquivalence, DefaultPlanIsIdentity)
{
    ChannelConfig cfg;
    const DegradedPlan plan = planDegraded(cfg);
    EXPECT_EQ(plan.repetition, 1u);
    EXPECT_EQ(plan.cfg.protocol.ts, cfg.protocol.ts);
    EXPECT_EQ(plan.cfg.protocol.tr, cfg.protocol.tr);
    EXPECT_EQ(plan.cfg.senderStartSlots, cfg.senderStartSlots);
    EXPECT_EQ(plan.cfg.calibration.measurements,
              cfg.calibration.measurements);
    EXPECT_EQ(plan.cfg.platform.lat.flushWbDrainExtra, 0u);
}

// ------------------------------------------------------------------
// Runner pins: every channel runner the pins above never reach — the
// transport link on both topologies, the coarse-timer repetition
// decoder, transmitString, the L2 and multi-set channels and the
// Prime+Probe baselines. They guard the runner scaffolding (frame
// repetition, raw run, decode-and-score, link binding): any drift in
// RNG split order, operation order or result assembly trips them.
// ------------------------------------------------------------------

/** The scalar TransportResult fields a transport pin records (frames
 *  carry the default FrameLayout's 48 payload bits). */
void
expectTransport(const TransportResult &t, unsigned framesTotal,
                unsigned framesDelivered, std::uint64_t framesSent,
                unsigned rounds, unsigned finalRateLevel,
                unsigned syncLosses, unsigned resyncs,
                std::uint64_t fecCorrectedBits, Cycles simulatedCycles)
{
    EXPECT_EQ(t.framesTotal, framesTotal);
    EXPECT_EQ(t.framesDelivered, framesDelivered);
    EXPECT_EQ(t.framesFailed, framesTotal - framesDelivered);
    EXPECT_EQ(t.framesSent, framesSent);
    EXPECT_EQ(t.retransmissions, framesSent - framesTotal);
    EXPECT_EQ(t.payloadBitsTotal, 48u * framesTotal);
    EXPECT_EQ(t.payloadBitsDelivered, 48u * framesDelivered);
    EXPECT_EQ(t.residualBitErrors, 0u);
    EXPECT_EQ(t.residualBer, 0.0);
    EXPECT_EQ(t.rounds, rounds);
    EXPECT_EQ(t.finalRateLevel, finalRateLevel);
    EXPECT_EQ(t.syncLosses, syncLosses);
    EXPECT_EQ(t.resyncs, resyncs);
    EXPECT_EQ(t.fecCorrectedBits, fecCorrectedBits);
    EXPECT_EQ(t.simulatedCycles, simulatedCycles);
}

TEST(RunnerPins, SingleCoreTransportBitIdentical)
{
    ChannelConfig cfg;
    cfg.usePlatform("desktop-inclusive");
    cfg.noiseProcesses = 2;
    cfg.transport.enabled = true;
    cfg.transport.messageFrames = 6;
    cfg.seed = 1;
    const TransportResult t = runTransport(cfg);
    expectTransport(t, 6, 6, 7, 2, 0, 2, 1, 1, 5880106);
    EXPECT_DOUBLE_EQ(t.goodputKbps, 107.75315955188563);
    EXPECT_DOUBLE_EQ(t.rawRateKbps, 400.0);
    EXPECT_EQ(t.rateLevelByRound, (std::vector<unsigned>{0, 0}));
    ASSERT_EQ(t.ferByRound.size(), 2u);
    EXPECT_DOUBLE_EQ(t.ferByRound[0], 0.16666666666666663);
    EXPECT_EQ(t.ferByRound[1], 0.0);
}

TEST(RunnerPins, CoarseTimerTransportBitIdentical)
{
    // The link's repetition branch: the plan sizes R per burst and
    // the receiver's R-sample blocks decode against mean centroids.
    ChannelConfig cfg;
    cfg.noise.observer = sim::ObserverModel::sandboxTimer(512);
    cfg.protocol.encoding = Encoding::binary(8);
    cfg.transport.enabled = true;
    cfg.transport.messageFrames = 2;
    cfg.seed = 17;
    const TransportResult t = runTransport(cfg);
    expectTransport(t, 2, 2, 2, 1, 0, 0, 0, 3, 353907760);
    EXPECT_DOUBLE_EQ(t.goodputKbps, 0.59676566572035616);
    EXPECT_DOUBLE_EQ(t.rawRateKbps, 400.0);
    EXPECT_EQ(t.rateLevelByRound, (std::vector<unsigned>{0}));
    EXPECT_EQ(t.ferByRound, (std::vector<double>{0.0}));
}

TEST(RunnerPins, CrossCoreTransportBitIdentical)
{
    // Four co-runners on a 4-core socket: the first three rounds fail
    // outright and the controller walks the ladder down to rung 3.
    CrossCoreChannelConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.scheduler = sim::platform(cfg.platformName).noisePreset;
    cfg.scheduler.coRunners = sim::SchedulerConfig::mixOf(4);
    cfg.transport.enabled = true;
    cfg.transport.messageFrames = 1;
    cfg.seed = 3;
    const TransportResult t = runCrossCoreTransport(cfg);
    expectTransport(t, 1, 1, 4, 4, 3, 1, 0, 1, 56416177);
    EXPECT_DOUBLE_EQ(t.goodputKbps, 1.8718035431574886);
    EXPECT_DOUBLE_EQ(t.rawRateKbps, 22.916666666666668);
    EXPECT_EQ(t.rateLevelByRound, (std::vector<unsigned>{0, 1, 2, 3}));
    EXPECT_EQ(t.ferByRound, (std::vector<double>{1.0, 1.0, 1.0, 0.0}));
    EXPECT_EQ(t.schedulerStats.contextSwitches, 1010u);
    EXPECT_EQ(t.schedulerStats.migrations, 0u);
    EXPECT_EQ(t.schedulerStats.coRunnerAccesses, 8106560u);
}

TEST(RunnerPins, CoarseTimerRepetitionChannelBitIdentical)
{
    ChannelConfig cfg;
    cfg.noise.observer = sim::ObserverModel::sandboxTimer(512);
    cfg.protocol.encoding = Encoding::binary(8);
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 2;
    cfg.protocol.repetitionOverride = 4;
    cfg.seed = 23;
    const ChannelResult r = runChannel(cfg);
    EXPECT_EQ(r.repetition, 4u);
    EXPECT_DOUBLE_EQ(r.ber, 0.4375);
    EXPECT_EQ(r.framesScored, 1u);
    EXPECT_EQ(r.framesExpected, 2u);
    EXPECT_DOUBLE_EQ(r.rateKbps, 97.65625);
    EXPECT_DOUBLE_EQ(r.goodputKbps, 54.931640625);
    EXPECT_EQ(r.simulatedCycles, 1750017u);
    EXPECT_EQ(r.latencies.size(), 309u);
    EXPECT_EQ(fnvLatencies(r.latencies), 3693365815082375742ull);
    {
        SCOPED_TRACE("sender");
        expectCounters(r.senderCounters, 256, 896, 897, 0, 0, 205343);
    }
    {
        SCOPED_TRACE("receiver");
        expectCounters(r.receiverCounters, 3440, 0, 3131, 896, 0, 228353);
    }
}

TEST(RunnerPins, TransmitStringBitIdentical)
{
    ChannelConfig cfg;
    cfg.seed = 29;
    ChannelResult r;
    EXPECT_EQ(transmitString(cfg, "pin", &r), "pin");
    EXPECT_EQ(r.ber, 0.0);
    EXPECT_EQ(r.sentFrame.size(), 40u);
    EXPECT_EQ(r.simulatedCycles, 511751u);
    EXPECT_EQ(r.latencies.size(), 91u);
    EXPECT_EQ(fnvLatencies(r.latencies), 1502461022423890319ull);
    {
        SCOPED_TRACE("sender");
        expectCounters(r.senderCounters, 40, 20, 21, 0, 0, 31501);
    }
    {
        SCOPED_TRACE("receiver");
        expectCounters(r.receiverCounters, 1042, 0, 951, 20, 0, 70187);
    }
}

TEST(RunnerPins, L2ChannelBitIdentical)
{
    L2ChannelConfig cfg;
    cfg.frames = 3;
    cfg.seed = 31;
    const L2ChannelResult r = runL2Channel(cfg);
    EXPECT_EQ(r.ber, 0.0);
    EXPECT_EQ(r.framesScored, 3u);
    EXPECT_DOUBLE_EQ(r.rateKbps, 73.333333333333329);
    EXPECT_EQ(r.simulatedCycles, 12426585u);
    EXPECT_EQ(r.latencies.size(), 412u);
    EXPECT_EQ(fnvLatencies(r.latencies), 3346348374847641363ull);
    {
        SCOPED_TRACE("sender");
        expectCounters(r.senderCounters, 8544, 816, 8977, 816, 0, 1631342);
    }
    {
        SCOPED_TRACE("receiver");
        expectCounters(r.receiverCounters, 5429, 0, 5017, 0, 0, 1743135);
    }
}

TEST(RunnerPins, MultiSetChannelBitIdentical)
{
    MultiSetConfig cfg;
    cfg.frames = 3;
    cfg.seed = 37;
    const ChannelResult r = runMultiSetChannel(cfg);
    EXPECT_DOUBLE_EQ(r.ber, 0.047619047619047616);
    EXPECT_EQ(r.framesScored, 3u);
    EXPECT_DOUBLE_EQ(r.rateKbps, 1600.0);
    EXPECT_DOUBLE_EQ(r.goodputKbps, 1523.8095238095236);
    EXPECT_EQ(r.simulatedCycles, 944998u);
    EXPECT_EQ(r.latencies.size(), 672u);
    EXPECT_EQ(fnvLatencies(r.latencies), 10988662320355209579ull);
    {
        SCOPED_TRACE("sender");
        expectCounters(r.senderCounters, 96, 804, 805, 0, 0, 76272);
    }
    {
        SCOPED_TRACE("receiver");
        expectCounters(r.receiverCounters, 7048, 0, 6881, 804, 0, 114595);
    }
}

TEST(RunnerPins, PrimeProbeBaselineBitIdentical)
{
    // runPrimeProbeChannel drives the shared runBaseline harness.
    baselines::BaselineConfig cfg;
    cfg.frames = 3;
    cfg.seed = 41;
    const baselines::BaselineResult r = baselines::runPrimeProbeChannel(cfg);
    EXPECT_EQ(r.ber, 0.0);
    EXPECT_EQ(r.framesScored, 2u);
    EXPECT_EQ(r.latencies.size(), 438u);
    EXPECT_EQ(fnvLatencies(r.latencies), 16111788933320707505ull);
    {
        SCOPED_TRACE("sender");
        expectCounters(r.senderCounters, 840, 0, 457, 0, 0, 301718);
    }
    {
        SCOPED_TRACE("receiver");
        expectCounters(r.receiverCounters, 3959, 0, 469, 0, 0, 339063);
    }
}

TEST(RunnerPins, CrossCorePrimeProbeBitIdentical)
{
    baselines::BaselineConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.frames = 3;
    cfg.seed = 43;
    const baselines::BaselineResult r =
        baselines::runCrossCorePrimeProbe(cfg);
    EXPECT_DOUBLE_EQ(r.ber, 0.058035714285714288);
    EXPECT_EQ(r.framesScored, 2u);
    EXPECT_EQ(r.latencies.size(), 437u);
    EXPECT_EQ(fnvLatencies(r.latencies), 5251911084350590686ull);
    {
        SCOPED_TRACE("sender");
        expectCounters(r.senderCounters, 744, 0, 361, 0, 0, 291694);
    }
    {
        SCOPED_TRACE("receiver");
        expectCounters(r.receiverCounters, 14454, 0, 14017, 0, 0, 186429);
    }
}

// ------------------------------------------------------------------
// Paced-program pins: every sender, receiver and noise process runs
// Algorithm 3's slot loop, and most of them had only statistical
// tests. These fix each program's op stream end to end (latency FNV,
// per-party counters, BER): the LRU, Hit+Hit and flush-family
// baselines, the noise process, the Flushgeist and eviction-only WB
// receivers, the multi-set pair with a message that ends mid-slot,
// and the offline detector traces of every workload.
// ------------------------------------------------------------------

/** The pinned observables of one paced channel run. */
struct RunPin
{
    double ber;
    unsigned framesScored;
    std::size_t samples;
    std::uint64_t fnv;
    std::uint64_t sender[6];   //!< expectCounters order
    std::uint64_t receiver[6]; //!< expectCounters order
};

void
expectRun(const ChannelResult &r, const RunPin &pin)
{
    EXPECT_DOUBLE_EQ(r.ber, pin.ber);
    EXPECT_EQ(r.framesScored, pin.framesScored);
    EXPECT_EQ(r.latencies.size(), pin.samples);
    EXPECT_EQ(fnvLatencies(r.latencies), pin.fnv);
    {
        SCOPED_TRACE("sender");
        const auto *c = pin.sender;
        expectCounters(r.senderCounters, c[0], c[1], c[2], c[3], c[4], c[5]);
    }
    {
        SCOPED_TRACE("receiver");
        const auto *c = pin.receiver;
        expectCounters(r.receiverCounters, c[0], c[1], c[2], c[3], c[4],
                       c[5]);
    }
}

baselines::BaselineConfig
pinBaselineConfig(std::uint64_t seed)
{
    baselines::BaselineConfig cfg;
    cfg.frames = 3;
    cfg.seed = seed;
    return cfg;
}

TEST(RunnerPins, LruBurstBaselineBitIdentical)
{
    expectRun(baselines::runLruChannel(pinBaselineConfig(61)),
              {0, 1, 436, 12374424041472930069ull,
               {7931, 0, 160, 0, 0, 302213},
               {3941, 0, 1273, 0, 0, 337824}});
}

TEST(RunnerPins, LruContinuousBaselineBitIdentical)
{
    expectRun(baselines::runLruChannel(pinBaselineConfig(67),
                                       /*modulateCycles=*/0),
              {1, 0, 438, 13023391213568214581ull,
               {368218, 0, 110, 0, 0, 144587},
               {3959, 0, 1876, 0, 0, 337867}});
}

TEST(RunnerPins, HitHitBaselineBitIdentical)
{
    expectRun(baselines::runHitHitChannel(pinBaselineConfig(71)),
              {0.086309523809523808, 3, 429, 11322213900416993319ull,
               {349196, 0, 2, 0, 0, 152158},
               {27887, 0, 2, 0, 0, 320663}});
}

TEST(RunnerPins, FlushReloadBaselineBitIdentical)
{
    expectRun(baselines::runFlushChannel(pinBaselineConfig(73),
                                         baselines::FlushKind::FlushReload),
              {0.0625, 3, 437, 9714257661668963633ull,
               {585, 0, 192, 0, 0, 301917},
               {875, 0, 247, 0, 0, 332338}});
}

TEST(RunnerPins, FlushFlushBaselineBitIdentical)
{
    expectRun(baselines::runFlushChannel(pinBaselineConfig(79),
                                         baselines::FlushKind::FlushFlush),
              {0.0059523809523809521, 3, 438, 15711674706853270472ull,
               {558, 0, 174, 0, 0, 297531},
               {439, 0, 1, 0, 0, 339685}});
}

TEST(RunnerPins, CoherenceStateBaselineBitIdentical)
{
    expectRun(
        baselines::runFlushChannel(pinBaselineConfig(83),
                                   baselines::FlushKind::CoherenceState),
        {0, 3, 438, 2476348878679880867ull,
         {594, 174, 385, 0, 0, 296392},
         {439, 0, 1, 0, 0, 339567}});
}

TEST(RunnerPins, NoisyPrimeProbeBaselineBitIdentical)
{
    // Two noise processes with mixed loads and stores: the per-burst
    // store draws land in the run RNG between the parties' draws.
    baselines::BaselineConfig cfg = pinBaselineConfig(89);
    cfg.noiseProcesses = 2;
    cfg.noiseCfg.period = 20000;
    cfg.noiseCfg.burstLines = 2;
    cfg.noiseCfg.storeFraction = 0.5;
    expectRun(baselines::runPrimeProbeChannel(cfg),
              {0.16369047619047619, 3, 438, 16139986558791401095ull,
               {762, 0, 379, 0, 0, 302442},
               {3959, 0, 869, 260, 0, 338397}});
}

TEST(RunnerPins, FlushLatencyChannelBitIdentical)
{
    ChannelConfig cfg;
    cfg.usePlatform("desktop-inclusive");
    cfg.noise.observer = sim::ObserverModel::flushLatency();
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 2;
    cfg.seed = 97;
    const ChannelResult r = runChannel(cfg);
    EXPECT_EQ(r.simulatedCycles, 645019u);
    expectRun(r, {0, 2, 115, 6331839813691347312ull,
                  {64, 30, 31, 0, 0, 50383},
                  {1306, 0, 1191, 30, 0, 84318}});
}

TEST(RunnerPins, EvictionOnlyChannelBitIdentical)
{
    ChannelConfig cfg;
    cfg.noise.observer = sim::ObserverModel::evictionOnly();
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 2;
    cfg.seed = 101;
    const ChannelResult r = runChannel(cfg);
    EXPECT_TRUE(r.evictionDiscoveryVerified);
    EXPECT_EQ(r.simulatedCycles, 646359u);
    expectRun(r, {0, 2, 116, 2455039993905027188ull,
                  {64, 34, 35, 0, 0, 50382},
                  {3997, 0, 3419, 34, 0, 89304}});
}

TEST(RunnerPins, MultiSetMidSlotHaltBitIdentical)
{
    // 5 sets and 3 x 64 = 192 message bits: the last slot carries 2
    // of its 5 bits, so the sender halts mid-slot.
    MultiSetConfig cfg;
    cfg.setCount = 5;
    cfg.frameBits = 64;
    cfg.frames = 3;
    cfg.seed = 103;
    const ChannelResult r = runMultiSetChannel(cfg);
    EXPECT_EQ(r.simulatedCycles, 650251u);
    expectRun(r, {0.15972222222222221, 3, 555, 4367938404369285939ull,
                  {38, 372, 353, 0, 0, 29710},
                  {5861, 0, 5751, 352, 0, 75555}});
}

/** FNV-1a over every feature of every window of a detector trace. */
std::uint64_t
fnvTrace(const std::vector<perfmon::WindowFeatures> &trace)
{
    std::vector<double> flat;
    for (const perfmon::WindowFeatures &w : trace) {
        flat.insert(flat.end(),
                    {w.l1MissPerKcycle, w.writebacksPerKcycle,
                     w.l2AccessPerKcycle, w.backInvalPerKcycle,
                     w.snoopPerKcycle});
    }
    return fnvLatencies(flat);
}

TEST(RunnerPins, DetectorTracesBitIdentical)
{
    using perfmon::Workload;
    const std::pair<Workload, std::uint64_t> pins[] = {
        {Workload::Idle, 10352487401602346083ull},
        {Workload::WbChannel, 12288708974437906959ull},
        {Workload::WbChannelD8, 5347414509818515295ull},
        {Workload::LruChannel, 3226239982044067455ull},
        {Workload::CompilerPair, 1514096285691764424ull},
        {Workload::Streaming, 14176223093695797911ull},
    };
    for (const auto &[workload, fnv] : pins) {
        SCOPED_TRACE(perfmon::workloadName(workload));
        const auto trace = perfmon::collectTrace(workload, 8, 200000, 107);
        ASSERT_EQ(trace.size(), 8u);
        EXPECT_EQ(fnvTrace(trace), fnv);
    }
}

// runAttack and runTenantSweep have no other bit-exact pin: these fix
// the Sec. IX attack loop (same-core and cross-core with attacker
// migration) and the many-tenant pipeline (blind discovery, slotted
// channel, decode) at values captured before their configs were
// rebased onto sim::RunSpec.

TEST(RunnerPins, SameCoreAttackBitIdentical)
{
    sidechan::AttackConfig cfg;
    cfg.trials = 64;
    cfg.seed = 53;
    const sidechan::AttackResult r = sidechan::runAttack(cfg);
    EXPECT_EQ(r.accuracy, 1.0);
    EXPECT_DOUBLE_EQ(r.threshold, 148.07779801136465);
    EXPECT_DOUBLE_EQ(r.meanLatency0, 141.83817891658867);
    EXPECT_DOUBLE_EQ(r.meanLatency1, 154.14479623752663);
}

TEST(RunnerPins, CrossCoreAttackBitIdentical)
{
    sidechan::AttackConfig cfg;
    cfg.usePlatform("desktop-inclusive-4core");
    cfg.crossCore = true;
    cfg.trials = 64;
    cfg.seed = 47;
    cfg.scheduler.migrationPeriod = 16; // trials between migrations
    EXPECT_EQ(cfg.cores, 4u);
    const sidechan::AttackResult r = sidechan::runAttack(cfg);
    EXPECT_DOUBLE_EQ(r.accuracy, 0.984375);
    EXPECT_DOUBLE_EQ(r.threshold, 3845.6681890355107);
    EXPECT_DOUBLE_EQ(r.meanLatency0, 3831.9778013545083);
    EXPECT_DOUBLE_EQ(r.meanLatency1, 3855.6808018423171);
}

TEST(RunnerPins, TenantSweepBitIdentical)
{
    TenantSweepConfig cfg;
    cfg.usePlatform("dc-sliced-16core");
    cfg.pairs = 8;
    cfg.seed = 59;
    EXPECT_EQ(cfg.cores, 16u);
    const TenantSweepResult r = runTenantSweep(cfg);

    struct PairPin
    {
        unsigned senderCore, receiverCore, targetSet, slice;
        std::uint64_t discoveryTests, discoveryAccesses;
        double ber;
    };
    const PairPin pins[] = {
        {0, 1, 10, 2, 224, 41542, 0.0},
        {2, 3, 11, 0, 221, 38227, 0.0},
        {4, 5, 23, 2, 204, 38619, 0.0},
        {6, 7, 34, 0, 204, 38832, 0.1875},
        {8, 9, 13, 2, 220, 41741, 0.0},
        {10, 11, 34, 0, 204, 35847, 0.5},
        {12, 13, 51, 2, 245, 45244, 0.0},
        {14, 15, 58, 0, 180, 33723, 0.0},
    };
    ASSERT_EQ(r.pairs.size(), std::size(pins));
    for (std::size_t i = 0; i < r.pairs.size(); ++i) {
        SCOPED_TRACE(i);
        const TenantPairResult &p = r.pairs[i];
        EXPECT_EQ(p.senderCore, pins[i].senderCore);
        EXPECT_EQ(p.receiverCore, pins[i].receiverCore);
        EXPECT_EQ(p.targetSet, pins[i].targetSet);
        EXPECT_EQ(p.slice, pins[i].slice);
        EXPECT_TRUE(p.discovered);
        EXPECT_EQ(p.senderLineCount, cfg.d);
        EXPECT_EQ(p.discoveryTests, pins[i].discoveryTests);
        EXPECT_EQ(p.discoveryAccesses, pins[i].discoveryAccesses);
        EXPECT_EQ(p.ber, pins[i].ber);
    }
    EXPECT_EQ(r.discovered, 8u);
    EXPECT_EQ(r.collidingPairs, 2u);
    EXPECT_DOUBLE_EQ(r.meanBer, 0.0859375);
    EXPECT_DOUBLE_EQ(r.aggregateKbps, 3151.8938699374266);
}

// ------------------------------------------------------------------
// The observeDuration choke point.
// ------------------------------------------------------------------

TEST(ObserveDuration, DefaultObserverIsIdentityAndDrawsNothing)
{
    Rng rng(42), reference(42);
    EXPECT_EQ(sim::observeDuration(123.375, 1, 0.0, rng), 123.375);
    EXPECT_EQ(sim::observeDuration(0.0, 0, 0.0, rng), 0.0);
    // No RNG draws were consumed: the next value matches a fresh
    // stream from the same seed.
    EXPECT_EQ(rng.uniform(), reference.uniform());
}

TEST(ObserveDuration, QuantizesToNeighbouringGranuleMultiples)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double obs = sim::observeDuration(250.0, 100, 0.0, rng);
        EXPECT_EQ(std::fmod(obs, 100.0), 0.0);
        EXPECT_TRUE(obs == 200.0 || obs == 300.0) << obs;
    }
}

TEST(ObserveDuration, DitheredQuantizationIsUnbiased)
{
    // floor((phase + d) / g) * g with uniform phase has expectation
    // exactly d; the sample mean over n draws has se = (g/sqrt(12)) /
    // sqrt(n) ~= 0.2 here, so a 1.5-cycle tolerance is ~7 sigma.
    Rng rng(123);
    const double d = 137.0;
    const int n = 20000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += sim::observeDuration(d, 100, 0.0, rng);
    EXPECT_NEAR(sum / n, d, 1.5);
}

// ------------------------------------------------------------------
// Quantization-bypass regression: under a coarse-timer observer,
// *every* observer-visible number — live receiver samples and offline
// calibration centroids alike — must be a granule multiple. Before
// the choke point the offline measurement helpers differenced raw
// virtual time, so calibration leaked cycle-accurate centroids a
// decoder could classify against.
// ------------------------------------------------------------------

TEST(CoarseTimerRegression, AllObservablesAreGranuleMultiples)
{
    constexpr double g = 512.0;
    ChannelConfig cfg;
    cfg.noise = sim::NoiseModel::quiet();
    cfg.platform.lat.noiseSigma = 0.0;
    cfg.noise.observer = sim::ObserverModel::sandboxTimer(512);
    cfg.protocol.encoding = Encoding::binary(8);
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 2;
    cfg.protocol.repetitionOverride = 1; // no amplification
    cfg.seed = 3;
    const ChannelResult res = runChannel(cfg);
    ASSERT_FALSE(res.latencies.empty());
    for (double lat : res.latencies)
        EXPECT_EQ(std::fmod(lat, g), 0.0) << lat;
    for (double m : res.calibrationMedians)
        EXPECT_EQ(std::fmod(m, g), 0.0) << m;
}

TEST(CoarseTimerRegression, UnamplifiedCoarseRunCannotBeDecoded)
{
    // The d2 = 8 signal is 96 cycles; one 512-cycle-granule sample
    // carries ~1/5 granule of signal, so with the repetition decoder
    // forced off no classifier input exists that recovers the frame —
    // the pooled error proportion stays in the coin-flip regime.
    ChannelConfig cfg;
    cfg.noise = sim::NoiseModel::quiet();
    cfg.platform.lat.noiseSigma = 0.0;
    cfg.noise.observer = sim::ObserverModel::sandboxTimer(512);
    cfg.protocol.encoding = Encoding::binary(8);
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 2;
    cfg.protocol.repetitionOverride = 1;
    EXPECT_BER_ABOVE(berSweep(cfg), 0.30);
}

// ------------------------------------------------------------------
// The pending-write-back flush model (Flushgeist's observable).
// ------------------------------------------------------------------

TEST(PendingWriteback, FlushDrainsQueuedDirtyEvictionsOnce)
{
    sim::HierarchyParams params = sim::xeonE5_2650Params();
    params.lat.noiseSigma = 0.0;
    sim::HierarchyParams drained = params;
    drained.lat.flushWbDrainExtra = 9;

    Rng rngA(1), rngB(1);
    sim::Hierarchy plain(params, &rngA);
    sim::Hierarchy model(drained, &rngB);

    // Dirty two ways past associativity in one set: the overflow
    // stores evict dirty victims, which queue as pending write-backs.
    const auto lines = linesForSet(plain.l1().layout(), /*set=*/5,
                                   plain.params().l1.ways + 2,
                                   /*tagBase=*/0x40);
    for (Addr va : lines) {
        (void)plain.access(0, va, /*isWrite=*/true);
        (void)model.access(0, va, /*isWrite=*/true);
    }
    EXPECT_EQ(plain.pendingDirtyWritebacks(), 0u); // tracking off
    const std::uint64_t pending = model.pendingDirtyWritebacks();
    EXPECT_EQ(pending, 2u);

    // The next flush pays the drain once, then the queue is empty.
    const Cycles base = plain.flush(0, lines[0]);
    const Cycles drainedCost = model.flush(0, lines[0]);
    EXPECT_EQ(drainedCost, base + 9 * pending);
    EXPECT_EQ(model.pendingDirtyWritebacks(), 0u);
    EXPECT_EQ(model.flush(0, lines[1]), plain.flush(0, lines[1]));
}

TEST(PendingWriteback, QueueIsCapped)
{
    sim::HierarchyParams params = sim::xeonE5_2650Params();
    params.lat.noiseSigma = 0.0;
    params.lat.flushWbDrainExtra = 9;
    Rng rng(1);
    sim::Hierarchy h(params, &rng);
    const auto lines = linesForSet(h.l1().layout(), /*set=*/5,
                                   h.params().l1.ways + 40,
                                   /*tagBase=*/0x40);
    for (Addr va : lines)
        (void)h.access(0, va, /*isWrite=*/true);
    EXPECT_EQ(h.pendingDirtyWritebacks(), sim::Hierarchy::kPendingWbCap);
}

// ------------------------------------------------------------------
// Observer class (i): coarse µs timer + repetition amplification.
// ------------------------------------------------------------------

TEST(CoarseTimerChannel, MicrosecondTimerRecoversChannelViaRepetition)
{
    // The Spy-in-the-Sandbox regime: ~1 µs timer floor against the
    // 96-cycle d2 = 8 signal. The plan must size a repetition factor
    // in the hundreds-to-thousands, and the amplified decode must
    // bring the pooled BER down to the clean-channel regime while the
    // reported rate honestly divides by R.
    ChannelConfig cfg;
    cfg.noise.observer = sim::ObserverModel::sandboxTimer();
    cfg.protocol.encoding = Encoding::binary(8);
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 2;
    EXPECT_BER_BELOW(berSweep(cfg), 0.05);

    cfg.seed = 7;
    const ChannelResult res = runChannel(cfg);
    EXPECT_GE(res.repetition, 2u);
    EXPECT_LE(res.repetition, kMaxRepetition);
    EXPECT_GT(res.goodputKbps, 0.0);
    // Amplification cost is real: effective rate far below the raw
    // ~333 kbps slot rate at the granule-aligned Ts.
    EXPECT_LT(res.rateKbps, 5.0);
}

// ------------------------------------------------------------------
// Observer class (ii): flush-latency (Flushgeist) receiver.
// ------------------------------------------------------------------

TEST(FlushLatencyChannel, MatchesLoadTimingBerOnInclusivePreset)
{
    ChannelConfig load;
    load.usePlatform("desktop-inclusive");
    load.protocol.frameBits = 32;
    load.protocol.frames = 4;

    ChannelConfig flush = load;
    flush.noise.observer = sim::ObserverModel::flushLatency();

    // Both receivers must sit in the same clean-channel regime on the
    // inclusive preset — the dirty state is readable through either
    // primitive (observed pooled rates ~1.5-2% under realistic noise).
    EXPECT_BER_BELOW(berSweep(load), 0.05);
    EXPECT_BER_BELOW(berSweep(flush), 0.05);
}

TEST(FlushLatencyChannel, RequiresFlushPrimitive)
{
    ChannelConfig cfg;
    cfg.noise.observer = sim::ObserverModel::flushLatency();
    cfg.noise.observer.hasFlush = false;
    EXPECT_EXIT((void)runChannel(cfg), ::testing::ExitedWithCode(1),
                "hasFlush=false");
}

// ------------------------------------------------------------------
// Observer class (iii): eviction-only (no flush instruction).
// ------------------------------------------------------------------

TEST(EvictionOnlyChannel, WbChannelSurvivesWithDiscoveredSets)
{
    ChannelConfig cfg;
    cfg.noise.observer = sim::ObserverModel::evictionOnly();
    cfg.protocol.frameBits = 32;
    cfg.protocol.frames = 4;
    EXPECT_BER_BELOW(berSweep(cfg), 0.05);

    // Set discovery itself must succeed (verified-minimal reductions)
    // on essentially every seed: 32/32 puts the Wilson lower bound at
    // ~0.83.
    const auto discovery = test::sweepSeeds(
        [cfg](std::uint64_t seed) {
            ChannelConfig c = cfg;
            c.seed = seed;
            const ChannelResult res = runChannel(c);
            return test::Proportion{
                res.evictionDiscoveryVerified ? 1.0 : 0.0, 1.0};
        },
        32);
    EXPECT_ACCURACY_ABOVE(discovery, 0.75);
}

TEST(EvictionOnlyChannel, FlushFamilyBaselinesAreDenied)
{
    baselines::BaselineConfig cfg;
    cfg.noise.observer = sim::ObserverModel::evictionOnly();
    EXPECT_FALSE(baselines::flushChannelAvailable(cfg));
    EXPECT_EXIT((void)baselines::runFlushChannel(
                    cfg, baselines::FlushKind::FlushReload),
                ::testing::ExitedWithCode(1), "denied");
    EXPECT_EXIT((void)baselines::runFlushChannel(
                    cfg, baselines::FlushKind::CoherenceState),
                ::testing::ExitedWithCode(1), "denied");

    baselines::BaselineConfig allowed;
    EXPECT_TRUE(baselines::flushChannelAvailable(allowed));
}

/** A program that issues one clflush and halts. */
struct FlushOnceProgram : sim::Program
{
    bool issued = false;

    std::optional<sim::MemOp>
    next(sim::ProcView &) override
    {
        if (!issued) {
            issued = true;
            return sim::MemOp::flush(0x1000);
        }
        return sim::MemOp::halt();
    }

    void
    onResult(const sim::MemOp &, const sim::OpResult &,
             sim::ProcView &) override
    {
    }
};

TEST(EvictionOnlyChannel, SmtCoreRefusesFlushOps)
{
    // Defense in depth below the baseline-level guard: any program
    // that reaches the core with a Flush op under a flushless
    // observer dies loudly instead of silently using a primitive the
    // observer does not have.
    sim::HierarchyParams params = sim::xeonE5_2650Params();
    sim::NoiseModel noise;
    noise.observer = sim::ObserverModel::evictionOnly();
    EXPECT_EXIT(
        {
            Rng rng(1);
            sim::Hierarchy hierarchy(params, &rng);
            sim::SmtCore core(hierarchy, noise, rng);
            FlushOnceProgram prog;
            core.addThread(&prog, sim::AddressSpace(1), 0);
            core.run(100000);
        },
        ::testing::ExitedWithCode(1), "hasFlush=false");
}

} // namespace
} // namespace wb::chan
