/**
 * @file
 * Unit and property tests for the Wagner-Fischer edit distance
 * (common/edit_distance.hh), the paper's BER metric.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/bitvec.hh"
#include "common/edit_distance.hh"
#include "common/rng.hh"

namespace wb
{
namespace
{

BitVec
bits(const std::string &s)
{
    return fromBitString(s);
}

/**
 * Reference editBreakdown: the straightforward per-row-vector DP over
 * vector<bool> the flat-table implementation replaced. Same
 * recurrence, same backtrace tie order (substitution/match, then
 * deletion, then insertion); kept here to pin the rewrite.
 */
EditBreakdown
referenceBreakdown(const std::vector<bool> &sent,
                   const std::vector<bool> &received)
{
    const std::size_t n = sent.size();
    const std::size_t m = received.size();
    std::vector<std::vector<std::size_t>> d(n + 1,
        std::vector<std::size_t>(m + 1, 0));
    for (std::size_t i = 0; i <= n; ++i)
        d[i][0] = i;
    for (std::size_t j = 0; j <= m; ++j)
        d[0][j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
        for (std::size_t j = 1; j <= m; ++j) {
            const std::size_t sub =
                d[i - 1][j - 1] + (sent[i - 1] == received[j - 1] ? 0 : 1);
            d[i][j] = std::min({sub, d[i - 1][j] + 1, d[i][j - 1] + 1});
        }
    }

    EditBreakdown out;
    out.distance = d[n][m];
    std::size_t i = n, j = m;
    while (i > 0 || j > 0) {
        if (i > 0 && j > 0 &&
            d[i][j] == d[i - 1][j - 1] +
                (sent[i - 1] == received[j - 1] ? 0 : 1)) {
            if (sent[i - 1] != received[j - 1])
                ++out.substitutions;
            --i;
            --j;
        } else if (i > 0 && d[i][j] == d[i - 1][j] + 1) {
            ++out.deletions;
            --i;
        } else {
            ++out.insertions;
            --j;
        }
    }
    return out;
}

/** Every field of editBreakdown() equals the reference's. */
void
expectMatchesReference(const BitVec &a, const BitVec &b)
{
    SCOPED_TRACE("|sent|=" + std::to_string(a.size()) +
                 " |received|=" + std::to_string(b.size()));
    const EditBreakdown got = editBreakdown(a, b);
    const EditBreakdown want = referenceBreakdown(a, b);
    EXPECT_EQ(got.distance, want.distance);
    EXPECT_EQ(got.substitutions, want.substitutions);
    EXPECT_EQ(got.insertions, want.insertions);
    EXPECT_EQ(got.deletions, want.deletions);
}

TEST(EditDistance, IdenticalIsZero)
{
    EXPECT_EQ(editDistance(bits("101010"), bits("101010")), 0u);
    EXPECT_EQ(editDistance({}, {}), 0u);
}

TEST(EditDistance, EmptyVsNonEmpty)
{
    EXPECT_EQ(editDistance({}, bits("1011")), 4u);
    EXPECT_EQ(editDistance(bits("1011"), {}), 4u); // deletion of all
}

TEST(EditDistance, SingleSubstitution)
{
    EXPECT_EQ(editDistance(bits("1010"), bits("1110")), 1u);
}

TEST(EditDistance, SingleInsertion)
{
    EXPECT_EQ(editDistance(bits("1010"), bits("10110")), 1u);
}

TEST(EditDistance, SingleDeletion)
{
    EXPECT_EQ(editDistance(bits("1010"), bits("110")), 1u);
}

TEST(EditDistance, ShiftCostsTwo)
{
    // A one-position shift inside a fixed-length window costs one
    // deletion plus one insertion.
    EXPECT_EQ(editDistance(bits("11001"), bits("10011")), 2u);
}

TEST(EditDistance, Symmetric)
{
    Rng rng(3);
    for (int i = 0; i < 30; ++i) {
        const BitVec a = randomBits(20, rng);
        const BitVec b = randomBits(23, rng);
        EXPECT_EQ(editDistance(a, b), editDistance(b, a));
    }
}

TEST(EditDistance, BoundedByLongerLength)
{
    Rng rng(5);
    for (int i = 0; i < 30; ++i) {
        const BitVec a = randomBits(15, rng);
        const BitVec b = randomBits(40, rng);
        EXPECT_LE(editDistance(a, b), 40u);
        EXPECT_GE(editDistance(a, b), 25u); // at least the length gap
    }
}

TEST(EditBreakdown, SumsToDistance)
{
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
        const BitVec a = randomBits(30, rng);
        const BitVec b = randomBits(28 + (i % 5), rng);
        const auto br = editBreakdown(a, b);
        EXPECT_EQ(br.distance, editDistance(a, b));
        EXPECT_EQ(br.substitutions + br.insertions + br.deletions,
                  br.distance);
    }
}

TEST(EditBreakdown, PureSubstitutions)
{
    const auto br = editBreakdown(bits("0000"), bits("1111"));
    EXPECT_EQ(br.distance, 4u);
    EXPECT_EQ(br.substitutions, 4u);
    EXPECT_EQ(br.insertions, 0u);
    EXPECT_EQ(br.deletions, 0u);
}

TEST(EditBreakdown, LengthDeltaShowsUp)
{
    const auto br = editBreakdown(bits("1111"), bits("111111"));
    EXPECT_EQ(br.insertions, 2u);
    EXPECT_EQ(br.deletions, 0u);
}

TEST(EditBreakdown, MatchesReferenceOnIndependentPairs)
{
    // Unrelated sequences: long runs of tied DP cells, so the
    // backtrace's tie order decides most of the breakdown.
    Rng rng(11);
    for (int iter = 0; iter < 300; ++iter) {
        const BitVec a = randomBits(rng.below(201), rng);
        const BitVec b = randomBits(rng.below(201), rng);
        expectMatchesReference(a, b);
    }
}

TEST(EditBreakdown, MatchesReferenceOnNoisyCopies)
{
    // Received = sent through a channel that flips, drops and inserts
    // bits, the shape decode() scores.
    Rng rng(13);
    for (int iter = 0; iter < 300; ++iter) {
        const BitVec a = randomBits(rng.below(201), rng);
        BitVec b;
        for (const bool bit : a) {
            const std::uint64_t roll = rng.below(100);
            if (roll < 4)
                continue; // lost bit
            b.push_back(roll < 10 ? !bit : bit);
            if (roll >= 96)
                b.push_back(rng.flip()); // spurious bit
        }
        if (b.size() > 200)
            b.resize(200);
        expectMatchesReference(a, b);
    }
}

TEST(EditBreakdown, MatchesReferenceAtEmptyEdges)
{
    Rng rng(17);
    expectMatchesReference({}, {});
    for (const std::size_t len : {1u, 2u, 7u, 200u}) {
        const BitVec a = randomBits(len, rng);
        expectMatchesReference(a, {});
        expectMatchesReference({}, a);
        expectMatchesReference(a, a);
    }
}

TEST(BitErrorRate, Values)
{
    EXPECT_DOUBLE_EQ(bitErrorRate(bits("1111"), bits("1111")), 0.0);
    EXPECT_DOUBLE_EQ(bitErrorRate(bits("1111"), bits("0000")), 1.0);
    EXPECT_DOUBLE_EQ(bitErrorRate(bits("1010"), bits("1011")), 0.25);
    EXPECT_DOUBLE_EQ(bitErrorRate({}, bits("1")), 0.0);
}

/** Property sweep: planting k flips yields distance <= k (and == k
 * when flips are isolated). */
class EditDistanceFlips : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EditDistanceFlips, PlantedFlipsBounded)
{
    const unsigned k = GetParam();
    Rng rng(100 + k);
    BitVec a = randomBits(64, rng);
    BitVec b = a;
    // Flip k well-separated positions.
    for (unsigned i = 0; i < k; ++i)
        b[i * 5] = !b[i * 5];
    EXPECT_EQ(editDistance(a, b), k);
    const auto br = editBreakdown(a, b);
    EXPECT_EQ(br.substitutions, k);
}

INSTANTIATE_TEST_SUITE_P(Flips, EditDistanceFlips,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u, 12u));

} // namespace
} // namespace wb
