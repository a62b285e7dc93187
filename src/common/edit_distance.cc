#include "common/edit_distance.hh"

#include <algorithm>

namespace wb
{

std::size_t
editDistance(const std::vector<bool> &sent, const std::vector<bool> &received)
{
    const std::size_t n = sent.size();
    const std::size_t m = received.size();
    // Two-row rolling DP keeps memory at O(m).
    std::vector<std::size_t> prev(m + 1), cur(m + 1);
    for (std::size_t j = 0; j <= m; ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= m; ++j) {
            const std::size_t sub =
                prev[j - 1] + (sent[i - 1] == received[j - 1] ? 0 : 1);
            cur[j] = std::min({sub, prev[j] + 1, cur[j - 1] + 1});
        }
        std::swap(prev, cur);
    }
    return prev[m];
}

EditBreakdown
editBreakdown(const std::vector<bool> &sent, const std::vector<bool> &received)
{
    const std::size_t n = sent.size();
    const std::size_t m = received.size();
    const std::size_t w = m + 1; // row stride of the flat table
    // Decode scores every frame through here, so the DP runs over one
    // flat (n+1) x (m+1) table (kept whole for the backtrace) and the
    // bits unpacked to bytes: one allocation per call and plain array
    // reads per cell. Sequences here are hundreds of bits, so O(n*m)
    // memory is fine.
    const std::vector<unsigned char> a(sent.begin(), sent.end());
    const std::vector<unsigned char> b(received.begin(), received.end());
    std::vector<std::size_t> d((n + 1) * w);
    for (std::size_t j = 0; j <= m; ++j)
        d[j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
        const std::size_t *up = &d[(i - 1) * w];
        std::size_t *row = &d[i * w];
        row[0] = i;
        for (std::size_t j = 1; j <= m; ++j) {
            const std::size_t sub = up[j - 1] + (a[i - 1] != b[j - 1]);
            row[j] = std::min({sub, up[j] + 1, row[j - 1] + 1});
        }
    }

    // Backtrace from the corner; ties resolve substitution (or match)
    // first, then deletion, then insertion.
    EditBreakdown out;
    out.distance = d[n * w + m];
    std::size_t i = n, j = m;
    while (i > 0 || j > 0) {
        const std::size_t here = d[i * w + j];
        if (i > 0 && j > 0) {
            const bool differ = a[i - 1] != b[j - 1];
            if (here == d[(i - 1) * w + (j - 1)] + differ) {
                out.substitutions += differ;
                --i;
                --j;
                continue;
            }
        }
        if (i > 0 && here == d[(i - 1) * w + j] + 1) {
            ++out.deletions;
            --i;
        } else {
            ++out.insertions;
            --j;
        }
    }
    return out;
}

double
bitErrorRate(const std::vector<bool> &sent, const std::vector<bool> &received)
{
    if (sent.empty())
        return 0.0;
    return static_cast<double>(editDistance(sent, received)) /
           static_cast<double>(sent.size());
}

} // namespace wb
