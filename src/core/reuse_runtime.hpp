/**
 * @file
 * ReuseRuntime: the one schedule every row-granular reuse pass runs.
 *
 * MERCURY's loop — detect similarity once, then skip MACs in forward,
 * dX, and dW (§III-C, Eq. 1) — is stated here once for the FC and
 * attention engines: an engine describes *what* a pass does (a pass
 * descriptor of owner bookkeeping / row compute / row copy / scan
 * callbacks) and the runtime runs it. Every pass has one host
 * schedule: detect, then compute. Detection of a live pass finishes
 * (on the frontend's pool) before the first row is computed; the
 * paper's Fig. 8 overlap of signature generation with PE work is
 * priced by the cycle model only (sim/dataflow.cpp).
 *
 * ## Stream sources
 *
 *  - live(rows)   — a fresh detection pass over a row population
 *                   (forward passes; optionally captured into a
 *                   SignatureRecord for later replay);
 *  - replay(pass) — a recorded pass, with zero hashing or probing
 *                   cycles and no MCACHE access (§III-C2; the
 *                   backward and weight-gradient passes).
 *
 * ## Pass descriptors
 *
 *  - RowPass — row-granular result forwarding (§III-C3): owner
 *    bookkeeping in row order decides per row whether it computes or
 *    copies its owner's result. Owners are always earlier computed
 *    rows, so a copy always reads a finished row. FC and attention
 *    forward, and both of their input-gradient replays, are RowPasses.
 *
 *  - ScanPass — an ordered scan over the rows (per-owner group
 *    accumulation, §III-C2 sum-then-multiply), then a finish loop
 *    over disjoint items (the per-group outer products). The
 *    weight-gradient replays of FC and attention are ScanPasses, via
 *    weightGradReplay below.
 *
 * Conv passes do not run here: whole channel passes run on ConvLanes
 * (below). One thread drives a runtime at a time (the engine's
 * caller); outputs and statistics do not depend on the thread count.
 */

#ifndef MERCURY_CORE_REUSE_RUNTIME_HPP
#define MERCURY_CORE_REUSE_RUNTIME_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/pass_arena.hpp"
#include "pipeline/detection_frontend.hpp"
#include "pipeline/signature_record.hpp"
#include "sim/dataflow.hpp"
#include "tensor/tensor.hpp"

namespace mercury {

/** Aggregated statistics of one reuse-enabled layer pass. */
struct ReuseStats
{
    HitMix mix;                ///< summed over all detection passes
    uint64_t macsTotal = 0;    ///< baseline MAC count
    uint64_t macsSkipped = 0;  ///< MACs avoided through reuse
    int64_t channelPasses = 0; ///< number of detection passes run

    ReuseStats &operator+=(const ReuseStats &other)
    {
        mix += other.mix;
        macsTotal += other.macsTotal;
        macsSkipped += other.macsSkipped;
        channelPasses += other.channelPasses;
        return *this;
    }

    double skipFraction() const
    {
        return macsTotal
                   ? static_cast<double>(macsSkipped) /
                         static_cast<double>(macsTotal)
                   : 0.0;
    }
};

/** Per-pass scheduler for the row-granular reuse engines. */
class ReuseRuntime
{
  public:
    /**
     * @param fe   the engine's detection front-end
     * @param bits signature length of live detection passes
     */
    ReuseRuntime(DetectionFrontend &fe, int bits)
        : fe_(fe)
        , bits_(bits)
    {
    }

    ReuseRuntime(const ReuseRuntime &) = delete;
    ReuseRuntime &operator=(const ReuseRuntime &) = delete;

    /** Where the rows of one scheduled pass come from. */
    class StreamSource
    {
      public:
        /** Fresh detection pass over `rows`, optionally captured. */
        static StreamSource live(const Tensor &rows,
                                 SignatureRecord *capture = nullptr)
        {
            StreamSource s;
            s.rows_ = &rows;
            s.capture_ = capture;
            return s;
        }

        /** Replay of a recorded pass (§III-C2; no MCACHE access). */
        static StreamSource replay(const SignatureRecord::Pass &pass)
        {
            StreamSource s;
            s.pass_ = &pass;
            return s;
        }

        bool isReplay() const { return pass_ != nullptr; }

        /** Rows the pass covers. */
        int64_t rowCount() const
        {
            if (pass_)
                return pass_->rows;
            return rows_->dim(0);
        }

      private:
        friend class ReuseRuntime;
        StreamSource() = default;

        const Tensor *rows_ = nullptr;
        const SignatureRecord::Pass *pass_ = nullptr;
        SignatureRecord *capture_ = nullptr;
    };

    /**
     * Row-forwarding pass (FC / attention style, §III-C3).
     *
     * For each row in ascending order, `ownerOf(row, res)` returns the
     * row whose result this row forwards (the row itself to compute)
     * — live passes do their owner-of-entry bookkeeping here; replays
     * read the record's owner map (`res` is default-constructed for
     * replays). The row is then computed (`computeRow`) or copied from
     * its owner (`copyRow`), and `rowSkipCost` MACs are booked into
     * the stats per forwarded row.
     */
    struct RowPass
    {
        std::function<int64_t(int64_t row, const McacheResult &res)>
            ownerOf;
        std::function<void(int64_t row)> computeRow;
        std::function<void(int64_t row, int64_t owner)> copyRow;
        uint64_t rowSkipCost = 0;
    };

    /**
     * Ordered scan + finish (weight-gradient style, §III-C2
     * sum-then-multiply): `scan(r0, r1)` walks the rows in order
     * (group accumulation — no row is independent of the ones before
     * it), then `finishItem(i)` runs for each of `finishItems`
     * disjoint work items (the per-group multiplies).
     */
    struct ScanPass
    {
        std::function<void(int64_t r0, int64_t r1)> scan;
        int64_t finishItems = 0;
        std::function<void(int64_t item)> finishItem;
    };

    /**
     * Engine-facing scratch arena: cache-aligned buffers that persist
     * across the runtime's passes (see pass_arena.hpp). The engine
     * owns the reset cadence.
     */
    PassArena &scratch() { return scratch_; }

    /** Run one row-forwarding pass. */
    DetectionResult runRows(const StreamSource &src, const RowPass &pass,
                            ReuseStats &stats);

    /** Run one ordered-scan pass. */
    DetectionResult runScan(const StreamSource &src, const ScanPass &pass,
                            ReuseStats &stats);

  private:
    DetectionFrontend &fe_;
    int bits_;
    PassArena scratch_;

    /** Detect a live source (empty result for a replay). */
    DetectionResult detect(const StreamSource &src);

    /** Fold the pass's mix into the stats (live det / recorded). */
    void addPassStats(const StreamSource &src, const DetectionResult &det,
                      ReuseStats &stats);
};

/**
 * One pool executor's private state for whole conv channel passes.
 *
 * MERCURY clears the MCACHE when a new channel's vectors arrive
 * (§III-B3), so on a non-persistent cache without a tenant quota
 * every conv channel pass is independent of every other — and a
 * replayed pass (dX, dW) never touches the cache at all.
 * ConvReuseEngine therefore makes the whole pass the unit of parallel
 * work: each executor runs complete passes serially on its own lane,
 * with no pool call inside a pass, instead of every pass forking and
 * joining the pool. A forward whose passes depend on earlier ones
 * (persistent or quota'd cache) runs the same pass body on one lane,
 * in order on the driving thread, detecting through the frontend's
 * own cache.
 *
 * A lane is scratch only: every field is fully rewritten by the pass
 * that uses it (the detection pass clears the lane cache, the data
 * plane is invalidated per filter, every row of every buffer is
 * written before it is read), so which lane runs a pass never shows
 * in any output or statistic.
 */
struct ConvLane
{
    /** MCACHE with the frontend's geometry (one shard). */
    std::unique_ptr<ShardedMCache> cache;
    PassDataPlane plane;               ///< forward HIT forwarding
    Tensor rows;                       ///< (rows, k*k) patch extraction
    std::vector<McacheResult> results; ///< forward outcomes of the pass
    std::vector<int64_t> owner;        ///< replayed owner map
    std::vector<float> col;            ///< dX grad column of one filter
    std::vector<float> gcol;           ///< dW group sums of one filter
    ReuseStats stats;                  ///< this lane's share of a run
};

/**
 * The lanes of one pool: one per executor (the pool's workers plus
 * the driving thread), shared by every conv layer of a context —
 * layers run one after another, so one set of lanes covers them all
 * (MercuryContext owns it; an engine without one keeps its own).
 */
class ConvLanes
{
  public:
    /**
     * Run fn(lane, item) once for every item in [0, items) across
     * `fe`'s pool: each executor drives one lane and claims items
     * until none are left, so a lane is never used by two threads at
     * once and there is one fork/join per call, not per pass. fn must
     * not call into the pool, except for a single item, which runs on
     * the driving thread. Returns the lanes' summed stats (integer
     * sums: independent of which lane ran which item). Driving thread
     * only; lane caches take `fe`'s cache geometry.
     */
    ReuseStats run(DetectionFrontend &fe, int64_t items,
                   const std::function<void(ConvLane &, int64_t)> &fn);

    /** Lanes built so far (tests). */
    int64_t count() const { return static_cast<int64_t>(lanes_.size()); }

  private:
    std::vector<std::unique_ptr<ConvLane>> lanes_;
};

/**
 * Weight-gradient replay of one recorded pass (§III-C2 applied to
 * Eq. 1): computes At B — the dW-shaped reduction Σ_r a_r ⊗ b_r over
 * the pass's n rows — with every forward-HIT row factored through its
 * owner (sum-then-multiply). Owners accumulate the b-rows of their
 * hit-group first (the owner's own row is a bit-exact copy, hits are
 * float adds), then each group performs one outer product with the
 * owner's a-row, in owner-ascending order — the same contraction
 * order (and zero-skip) as matmul(transpose2d(a), b), so a zero-hit
 * replay reproduces it bit for bit; with hits the result is the exact
 * sum up to float-summation order of the grouped b-rows.
 *
 * `stats.macsSkipped` gains da x db per HIT row (its outer product is
 * replaced by db accumulate adds, which the cycle model charges
 * separately as per-group accumulate cycles). Scheduled as a
 * ReuseRuntime ScanPass: the group sums walk the replayed rows in
 * order, then the outer products run one output row per item.
 */
Tensor weightGradReplay(ReuseRuntime &rt, const SignatureRecord &record,
                        const SignatureRecord::Pass &pass, const Tensor &a,
                        const Tensor &b, ReuseStats &stats);

} // namespace mercury

#endif // MERCURY_CORE_REUSE_RUNTIME_HPP
