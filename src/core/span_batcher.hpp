/**
 * @file
 * Span batching for the conv dX scatter: kxSpan clips one kernel row
 * against the input width. At output column x, the in-bounds kernel
 * columns form one contiguous window [kx0, kx1) whose source (the
 * grad column row) and destination (the input-gradient row) are both
 * contiguous — one addSpan per (output position, kernel row) instead
 * of a bounds check per element.
 */

#ifndef MERCURY_CORE_SPAN_BATCHER_HPP
#define MERCURY_CORE_SPAN_BATCHER_HPP

#include <algorithm>
#include <cstdint>

namespace mercury {

/** Contiguous in-bounds kernel-column window of one scatter row. */
struct KxSpan
{
    int64_t kx0; ///< first in-bounds kernel column
    int64_t kx1; ///< one past the last in-bounds kernel column
};

/**
 * The valid kernel columns at output column x: kx such that
 * 0 <= x*stride - pad + kx < in_w. Empty window when kx0 >= kx1.
 */
inline KxSpan
kxSpan(int64_t x, int64_t stride, int64_t pad, int64_t k, int64_t in_w)
{
    const int64_t base = x * stride - pad;
    return {std::max<int64_t>(0, -base),
            std::min<int64_t>(k, in_w - base)};
}

} // namespace mercury

#endif // MERCURY_CORE_SPAN_BATCHER_HPP
