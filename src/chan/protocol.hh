/**
 * @file
 * Framing and decoding for the covert channel protocol (Algorithm 3
 * plus the evaluation methodology of Sec. V).
 *
 * The sender transmits a fixed frame repeatedly: a 16-bit preamble the
 * receiver aligns on, followed by random payload bits (the paper uses
 * 128-bit frames for binary symbols, 256-bit frames for 2-bit symbols).
 * The receiver classifies each measured latency into a symbol, expands
 * symbols to bits, locates the preamble, and scores each frame's
 * payload with the Wagner-Fischer edit distance, which accounts for
 * bit flips, insertions and losses.
 */

#ifndef WB_CHAN_PROTOCOL_HH
#define WB_CHAN_PROTOCOL_HH

#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "common/edit_distance.hh"
#include "common/types.hh"
#include "chan/modulation.hh"

namespace wb::chan
{

/** Protocol parameters (defaults follow the paper's evaluation). */
struct ProtocolConfig
{
    Cycles ts = 5500;   //!< sender period (cycles)
    Cycles tr = 5500;   //!< receiver period; the paper uses Tr = Ts
    Encoding encoding = Encoding::binary(1);
    unsigned frameBits = 128; //!< frame size incl. 16-bit preamble
    unsigned frames = 90;     //!< repetitions (paper: >= 90 / >= 45)
    unsigned targetSet = 13;  //!< agreed L1 set
    unsigned replacementSize = 10; //!< paper Sec. IV-A result
    double cpuGhz = 2.2;      //!< Xeon E5-2650 clock (Table III)

    /**
     * Force the coarse-timer repetition factor instead of letting
     * planDegraded auto-scale it from a planning calibration (0 =
     * auto). Used by the regression suite to prove an unamplified
     * coarse run fails, and by sweeps that want fixed-budget cells.
     * Ignored for the default cycle-accurate observer.
     */
    unsigned repetitionOverride = 0;

    /** Raw channel rate in kbps: bitsPerSymbol * f / Ts. */
    double
    rateKbps() const
    {
        return encoding.bitsPerSymbol() * cpuGhz * 1e6 /
               static_cast<double>(ts);
    }

    /** Symbols per frame. */
    unsigned
    symbolsPerFrame() const
    {
        return frameBits / encoding.bitsPerSymbol();
    }
};

/** Decode outcome over a whole run. */
struct DecodeResult
{
    BitVec bitstream;             //!< all bits decoded from samples
    double ber = 1.0;             //!< edit-distance / payload bits
    EditBreakdown breakdown;      //!< error-type totals
    unsigned framesScored = 0;    //!< frames actually located/scored
    unsigned framesExpected = 0;  //!< frames the sender transmitted
    bool aligned = false;         //!< preamble found at least once
};

/** Convert classified symbols into a bit stream. */
BitVec symbolsToBits(const std::vector<unsigned> &symbols,
                     const Encoding &encoding);

/** Classify raw latencies into symbols. */
std::vector<unsigned> classifyAll(const std::vector<double> &latencies,
                                  const Classifier &classifier);

/**
 * Score a received bitstream against the repeated @p frame.
 *
 * Alignment: the first preamble occurrence (<= 2 bit errors) anchors
 * frame 0; each subsequent frame start is re-searched within +/- 8 bits
 * of its expected position to absorb slips. Every located frame's
 * payload is scored with the edit distance against the sent payload.
 */
DecodeResult scoreFrames(const BitVec &bitstream, const BitVec &frame,
                         unsigned framesExpected);

/**
 * Full receive pipeline: classify, expand, align, score.
 */
DecodeResult decodeTransmission(const std::vector<double> &latencies,
                                const Classifier &classifier,
                                const Encoding &encoding,
                                const BitVec &frame,
                                unsigned framesExpected);

/**
 * Expand a frame into the per-slot dirty-line sequence the sender
 * must modulate (Algorithm 1's d = f(M[0..k-1]) per slot). Each
 * symbol's level is held for @p hold consecutive slots (the
 * coarse-timer repetition factor R; 1 = one slot per symbol).
 */
std::vector<unsigned> frameToLevels(const BitVec &frame,
                                    const Encoding &encoding,
                                    unsigned hold = 1);

/**
 * @p frame sent back to back @p times: the sender's repeated stream,
 * as bits or as per-slot levels (expand one frame with frameToLevels,
 * then repeat the levels).
 */
template <class T>
std::vector<T>
repeatFrame(const std::vector<T> &frame, unsigned times)
{
    std::vector<T> out;
    out.reserve(frame.size() * times);
    for (unsigned f = 0; f < times; ++f)
        out.insert(out.end(), frame.begin(), frame.end());
    return out;
}

/** @p bits zero-padded to a whole number of @p encoding's symbols. */
BitVec padToSymbols(BitVec bits, const Encoding &encoding);

/**
 * The run bookkeeping every transmission runner (same-core and
 * cross-core WB channel, every baseline) derives from its slot
 * count: when the sender launches, how many observations the
 * receiver records, and how long the platform must run.
 */
struct TransmissionSchedule
{
    Cycles senderStart = 0;      //!< sender thread start time
    std::size_t sampleCount = 0; //!< receiver observations to record
    Cycles horizon = 0;          //!< simulation end time
};

/**
 * Compute the schedule for a transmission of @p slots sender slots
 * of period @p ts.
 *
 * @param senderStartSlots sender launch delay, in slots
 * @param sampleMargin extra receiver samples beyond the slot count
 */
TransmissionSchedule transmissionSchedule(std::size_t slots, Cycles ts,
                                          unsigned senderStartSlots,
                                          unsigned sampleMargin);

} // namespace wb::chan

#endif // WB_CHAN_PROTOCOL_HH
