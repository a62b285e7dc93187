#include "chan/calibration.hh"

#include "chan/pointer_chase.hh"
#include "chan/set_mapping.hh"
#include "common/log.hh"

namespace wb::chan
{

namespace
{

/**
 * Force strict centroid ordering. Under a closed channel (write-
 * through, DAWG) seen through a coarse timer the per-level samples can
 * quantize to identical point masses and the centroids tie exactly;
 * Classifier's ctor is (rightly) fatal on that. Nudging a tied
 * centroid up by an epsilon yields an honest near-chance classifier
 * instead of a crash — the sweep reports ~50% BER for the closed cell.
 */
std::vector<double>
strictlyIncreasing(std::vector<double> centroids)
{
    for (std::size_t i = 1; i < centroids.size(); ++i) {
        if (centroids[i] <= centroids[i - 1])
            centroids[i] = centroids[i - 1] + 1e-6;
    }
    return centroids;
}

} // namespace

Classifier
Calibration::binaryClassifier(unsigned d2) const
{
    if (d2 >= medianByD.size())
        fatalf("binaryClassifier: d2 ", d2, " out of calibrated range");
    return Classifier(strictlyIncreasing({medianByD[0], medianByD[d2]}));
}

Classifier
Calibration::classifierFor(const Encoding &encoding) const
{
    std::vector<double> centroids;
    centroids.reserve(encoding.symbols());
    for (unsigned s = 0; s < encoding.symbols(); ++s) {
        const unsigned d = encoding.level(s);
        if (d >= medianByD.size())
            fatalf("classifierFor: level ", d, " out of calibrated range");
        centroids.push_back(medianByD[d]);
    }
    return Classifier(strictlyIncreasing(std::move(centroids)));
}

Classifier
Calibration::meanClassifierFor(const Encoding &encoding) const
{
    std::vector<double> centroids;
    centroids.reserve(encoding.symbols());
    for (unsigned s = 0; s < encoding.symbols(); ++s) {
        const unsigned d = encoding.level(s);
        if (d >= meanByD.size())
            fatalf("meanClassifierFor: level ", d,
                   " out of calibrated range");
        centroids.push_back(meanByD[d]);
    }
    return Classifier(strictlyIncreasing(std::move(centroids)));
}

double
measureChaseOffline(sim::MemorySystem &mem, ThreadId tid,
                    const sim::AddressSpace &space,
                    const std::vector<Addr> &order,
                    const sim::NoiseModel &noise)
{
    const auto batch =
        mem.accessBatch(tid, space, order, /*isWrite=*/false);
    return static_cast<double>(batch.totalLatency +
                               noise.opOverhead * batch.accesses +
                               noise.tscReadCost);
}

Calibration
calibrate(const sim::HierarchyParams &hp, const sim::NoiseModel &noise,
          const CalibrationConfig &cfg, Rng &rng)
{
    const unsigned ways = hp.l1.ways;
    Calibration out;
    out.latencyByD.resize(ways + 1);
    out.medianByD.resize(ways + 1, 0.0);

    const ThreadId senderTid = 0;
    const ThreadId receiverTid = 1;
    sim::AddressSpace senderSpace(1);
    sim::AddressSpace receiverSpace(2);

    // One hierarchy for the whole calibration, with the d values
    // interleaved at random. This matters for non-stack replacement
    // policies (PLRU variants, SRRIP, random): leftover lines from
    // previous slots shift the steady-state baseline, so calibrating
    // each d in isolation would misplace the thresholds the live
    // receiver needs (an in-situ attacker calibrates the same way).
    sim::Hierarchy hierarchy(hp, &rng);
    const auto sets = makeChannelSets(hierarchy.l1().layout(),
                                      cfg.targetSet, ways,
                                      cfg.replacementSize);
    PointerChase chaseA(sets.replacementA);
    PointerChase chaseB(sets.replacementB);

    // Warm both replacement sets into L2.
    for (int sweep = 0; sweep < 2; ++sweep) {
        hierarchy.accessBatch(receiverTid, receiverSpace,
                              sets.replacementA, false);
        hierarchy.accessBatch(receiverTid, receiverSpace,
                              sets.replacementB, false);
    }

    std::vector<unsigned> mix = cfg.levelsMix;
    if (mix.empty()) {
        for (unsigned d = 0; d <= ways; ++d)
            mix.push_back(d);
    }
    for (unsigned d : mix) {
        if (d > ways)
            fatalf("calibrate: level ", d, " exceeds associativity");
    }

    const std::size_t total = mix.size() * cfg.measurements + cfg.discard;
    bool useA = true;
    for (std::size_t m = 0; m < total; ++m) {
        const unsigned d = mix[rng.below(mix.size())];
        // Sender phase: dirty d lines (Algorithm 1 encode).
        hierarchy.accessBatch(senderTid, senderSpace,
                              sets.senderLines.data(), d,
                              /*isWrite=*/true);
        // Receiver phase: timed traversal (Algorithm 2 decode), or —
        // for the Flushgeist observer — an *untimed* prime followed by
        // one timed clflush of a probe line, whose cost carries the
        // dirty write-backs the prime just queued.
        PointerChase &chase = useA ? chaseA : chaseB;
        chase.reshuffle(rng);
        double lat;
        if (cfg.probe == CalibrationProbe::FlushLatency) {
            hierarchy.accessBatch(receiverTid, receiverSpace,
                                  chase.order(), /*isWrite=*/false);
            const Addr probeVa =
                useA ? sets.replacementA[0] : sets.replacementB[0];
            lat = static_cast<double>(
                hierarchy.flush(receiverTid,
                                receiverSpace.translate(probeVa)) +
                noise.opOverhead + noise.tscReadCost);
        } else {
            lat = measureChaseOffline(hierarchy, receiverTid,
                                      receiverSpace, chase.order(),
                                      noise);
        }
        lat = noise.observeOffline(lat, rng);
        useA = !useA;
        if (m >= cfg.discard)
            out.latencyByD[d].add(lat);
    }
    out.meanByD.resize(ways + 1, 0.0);
    out.stddevByD.resize(ways + 1, 0.0);
    for (unsigned d = 0; d <= ways; ++d) {
        out.medianByD[d] = out.latencyByD[d].median();
        if (!out.latencyByD[d].raw().empty()) {
            out.meanByD[d] = out.latencyByD[d].mean();
            out.stddevByD[d] = out.latencyByD[d].stddev();
        }
    }
    return out;
}

} // namespace wb::chan
