/**
 * @file
 * PassArena: reusable, cache-aligned scratch storage for the reuse
 * passes, plus the arena-backed per-pass data plane the convolution
 * forward runs HIT forwarding through.
 *
 * ## PassArena
 *
 * A bump allocator over a list of 64-byte-aligned chunks. take()
 * calls bump within the current chunk; reset() rewinds to the first
 * chunk WITHOUT freeing, so a steady-state pass sequence (the
 * weight-gradient replays of successive steps, say) allocates on the
 * first pass and reuses the same cache-hot memory on every later one.
 *
 * Lifetime contract: pointers from take() stay valid until the next
 * reset() (chunks never move or free before then). One thread calls
 * take()/reset() and uses the buffers.
 *
 * ## PassDataPlane
 *
 * The flat (version, entry) value/valid store behind conv-forward HIT
 * forwarding: the paper's multi-version MCACHE data portion (Fig. 11),
 * kept apart from the tag-only MCache. It has no locks: every thread
 * that deposits or reads owns its plane or a distinct version slot of
 * it (each conv lane owns a plane and uses one slot, invalidated per
 * filter). Validity lives in bytes, not packed bits: two owners
 * writing neighboring entries must not share a memory location.
 * invalidateAll() (the paper's Valid-Data bitline) requires
 * quiescence.
 */

#ifndef MERCURY_CORE_PASS_ARENA_HPP
#define MERCURY_CORE_PASS_ARENA_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#include "util/prefetch.hpp"

namespace mercury {

/** Cache-aligned bump arena; storage persists across reset(). */
class PassArena
{
  public:
    PassArena() = default;
    PassArena(const PassArena &) = delete;
    PassArena &operator=(const PassArena &) = delete;

    ~PassArena()
    {
        for (Chunk &c : chunks_)
            ::operator delete(c.mem, std::align_val_t(kAlign));
    }

    /** Rewind to the start; every previously taken pointer dies. */
    void reset()
    {
        chunk_ = 0;
        used_ = 0;
    }

    /** Uninitialized 64-byte-aligned buffer of n floats. */
    float *floats(int64_t n) { return take<float>(n); }

    /** Uninitialized 64-byte-aligned buffer of n indices. */
    int64_t *indices(int64_t n) { return take<int64_t>(n); }

    /** Uninitialized 64-byte-aligned buffer of n bytes. */
    uint8_t *bytes(int64_t n) { return take<uint8_t>(n); }

  private:
    static constexpr size_t kAlign = 64;
    static constexpr size_t kMinChunk = 1 << 16;

    struct Chunk
    {
        void *mem;
        size_t cap;
    };

    template <typename T>
    T *take(int64_t n)
    {
        const size_t bytes =
            (static_cast<size_t>(n) * sizeof(T) + kAlign - 1) &
            ~(kAlign - 1);
        while (chunk_ < chunks_.size() &&
               used_ + bytes > chunks_[chunk_].cap) {
            ++chunk_;
            used_ = 0;
        }
        if (chunk_ == chunks_.size()) {
            const size_t cap =
                bytes > kMinChunk
                    ? (bytes + kMinChunk - 1) & ~(kMinChunk - 1)
                    : kMinChunk;
            chunks_.push_back(
                {::operator new(cap, std::align_val_t(kAlign)), cap});
            used_ = 0;
        }
        T *p = reinterpret_cast<T *>(
            static_cast<char *>(chunks_[chunk_].mem) + used_);
        used_ += bytes;
        return p;
    }

    std::vector<Chunk> chunks_;
    size_t chunk_ = 0; ///< chunk currently bumping
    size_t used_ = 0;  ///< bytes used in that chunk
};

/** Lock-free (version, entry) value store for conv HIT forwarding. */
class PassDataPlane
{
  public:
    /**
     * Size the plane (reallocates only on growth/shape change) and
     * invalidate every cell. Driving thread, between passes.
     */
    void configure(int64_t entries, int versions)
    {
        entries_ = entries;
        versions_ = versions;
        const size_t cells = static_cast<size_t>(entries) *
                             static_cast<size_t>(versions);
        if (values_.size() < cells) {
            values_.resize(cells);
            valid_.resize(cells);
        }
        invalidateAll();
    }

    /** Clear every validity byte. Requires quiescence. */
    void invalidateAll()
    {
        if (!valid_.empty())
            std::memset(valid_.data(), 0,
                        static_cast<size_t>(entries_) *
                            static_cast<size_t>(versions_));
    }

    /** Valid-check + read of one cell (callers own the slot). */
    bool readIfValid(int64_t entry, int version, float &value) const
    {
        const size_t c = cell(entry, version);
        if (!valid_[c])
            return false;
        value = values_[c];
        return true;
    }

    /** Deposit one cell and mark it valid. */
    void write(int64_t entry, int version, float value)
    {
        const size_t c = cell(entry, version);
        values_[c] = value;
        valid_[c] = 1;
    }

    /**
     * Hint a future readIfValid(entry, version) into cache (the
     * filter-segment walk prefetches row i+1's slot while row i's dot
     * product runs). Out-of-range entries (MNU rows carry -1) no-op.
     */
    void prefetch(int64_t entry, int version) const
    {
        if (entry < 0 || entry >= entries_)
            return;
        const size_t c = cell(entry, version);
        prefetchRead(&values_[c]);
        prefetchRead(&valid_[c]);
    }

    int64_t entries() const { return entries_; }
    int versions() const { return versions_; }

  private:
    // Version-major layout: one slot is a contiguous entries_-sized
    // region, so one owner's reads and writes stay within its own
    // cache lines.
    size_t cell(int64_t entry, int version) const
    {
        return static_cast<size_t>(version) *
                   static_cast<size_t>(entries_) +
               static_cast<size_t>(entry);
    }

    int64_t entries_ = 0;
    int versions_ = 0;
    std::vector<float> values_;
    std::vector<uint8_t> valid_;
};

} // namespace mercury

#endif // MERCURY_CORE_PASS_ARENA_HPP
