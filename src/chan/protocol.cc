#include "chan/protocol.hh"

#include <algorithm>

#include "common/log.hh"

namespace wb::chan
{

BitVec
symbolsToBits(const std::vector<unsigned> &symbols, const Encoding &encoding)
{
    BitVec bits;
    bits.reserve(symbols.size() * encoding.bitsPerSymbol());
    for (unsigned s : symbols)
        encoding.appendSymbolBits(s, bits);
    return bits;
}

std::vector<unsigned>
classifyAll(const std::vector<double> &latencies, const Classifier &classifier)
{
    std::vector<unsigned> symbols;
    symbols.reserve(latencies.size());
    for (double lat : latencies)
        symbols.push_back(classifier.classify(lat));
    return symbols;
}

std::vector<unsigned>
frameToLevels(const BitVec &frame, const Encoding &encoding, unsigned hold)
{
    const unsigned k = encoding.bitsPerSymbol();
    if (frame.size() % k != 0)
        fatalf("frameToLevels: frame size ", frame.size(),
               " not divisible by bits/symbol ", k);
    std::vector<unsigned> levels;
    levels.reserve(frame.size() / k * hold);
    for (std::size_t pos = 0; pos < frame.size(); pos += k)
        levels.insert(levels.end(), hold,
                      encoding.level(encoding.symbolAt(frame, pos)));
    return levels;
}

BitVec
padToSymbols(BitVec bits, const Encoding &encoding)
{
    while (bits.size() % encoding.bitsPerSymbol() != 0)
        bits.push_back(false);
    return bits;
}

namespace
{

/** Extract [start, start+len) from @p bits, truncating at the end. */
BitVec
slice(const BitVec &bits, std::size_t start, std::size_t len)
{
    BitVec out;
    if (start >= bits.size())
        return out;
    const std::size_t end = std::min(bits.size(), start + len);
    out.assign(bits.begin() + static_cast<std::ptrdiff_t>(start),
               bits.begin() + static_cast<std::ptrdiff_t>(end));
    return out;
}

} // namespace

DecodeResult
scoreFrames(const BitVec &bitstream, const BitVec &frame,
            unsigned framesExpected)
{
    DecodeResult res;
    res.bitstream = bitstream;
    res.framesExpected = framesExpected;

    const BitVec pre = preamble16();
    if (frame.size() <= pre.size())
        fatalf("scoreFrames: frame smaller than the preamble");
    const BitVec payload(frame.begin() +
                             static_cast<std::ptrdiff_t>(pre.size()),
                         frame.end());
    const std::size_t frameLen = frame.size();
    const std::size_t payloadLen = payload.size();

    // Anchor on the first preamble occurrence.
    const std::size_t searchLen =
        std::min(bitstream.size(), frameLen * 3);
    auto anchor = alignByPattern(slice(bitstream, 0, searchLen), pre, 2);
    if (!anchor) {
        // Total loss: the conventional worst case counts every payload
        // bit of every expected frame as an error.
        res.ber = 1.0;
        res.breakdown.distance = framesExpected * payloadLen;
        res.breakdown.deletions = res.breakdown.distance;
        return res;
    }
    res.aligned = true;

    std::size_t pos = *anchor;
    std::size_t totalDistance = 0;
    std::size_t totalBits = 0;
    EditBreakdown agg;

    while (pos + frameLen <= bitstream.size() &&
           res.framesScored < framesExpected) {
        // Re-lock on the preamble near the expected start to absorb
        // phase slips (bit insertions/losses between frames). The
        // +/- 24-bit window covers preemption-sized slips without
        // reaching the neighbouring frames' preambles.
        std::size_t start = pos;
        const std::size_t windowBack = pos >= 24 ? pos - 24 : 0;
        auto found = alignByPattern(
            slice(bitstream, windowBack, 48 + pre.size()), pre, 2);
        if (found) {
            start = windowBack + *found;
        } else {
            // Lost lock: scan forward up to one frame for the next
            // preamble (a long preemption may have swallowed dozens
            // of slots).
            auto fwd = alignByPattern(
                slice(bitstream, pos, frameLen + pre.size()), pre, 3);
            if (fwd)
                start = pos + *fwd;
        }

        const BitVec gotPayload =
            slice(bitstream, start + pre.size(), payloadLen);
        if (gotPayload.size() < payloadLen / 2)
            break; // ran out of samples

        const EditBreakdown eb = editBreakdown(payload, gotPayload);
        totalDistance += eb.distance;
        totalBits += payloadLen;
        agg.distance += eb.distance;
        agg.substitutions += eb.substitutions;
        agg.insertions += eb.insertions;
        agg.deletions += eb.deletions;
        ++res.framesScored;
        pos = start + frameLen;
    }

    res.breakdown = agg;
    res.ber = totalBits
        ? static_cast<double>(totalDistance) / static_cast<double>(totalBits)
        : 1.0;
    return res;
}

DecodeResult
decodeTransmission(const std::vector<double> &latencies,
                   const Classifier &classifier, const Encoding &encoding,
                   const BitVec &frame, unsigned framesExpected)
{
    const auto symbols = classifyAll(latencies, classifier);
    const BitVec bits = symbolsToBits(symbols, encoding);
    return scoreFrames(bits, frame, framesExpected);
}

TransmissionSchedule
transmissionSchedule(std::size_t slots, Cycles ts,
                     unsigned senderStartSlots, unsigned sampleMargin)
{
    TransmissionSchedule s;
    s.senderStart = static_cast<Cycles>(senderStartSlots) * ts;
    s.sampleCount = slots + senderStartSlots + sampleMargin;
    // Slack per slot (+50 cycles) absorbs spin overshoot drift, the
    // +8 slots and flat tail absorb the receiver's warm-up and the
    // final partially-observed slots.
    s.horizon = s.senderStart +
                static_cast<Cycles>(slots + 8) * (ts + 50) + 200000;
    return s;
}

} // namespace wb::chan
