/**
 * @file
 * DetectionPipeline: the batched, multi-threaded similarity front-end
 * (§III-B, Fig. 7/8).
 *
 * The legacy SimilarityDetector walks a vector population one row at
 * a time: hash, probe, record. The pipeline restructures that hot
 * path into three stages:
 *
 *  1. blocked signature generation — row blocks are projected against
 *     all signature filters at once (RPQEngine::projectBlock), the
 *     software analogue of streaming the PE array with a whole batch;
 *  2. sharded MCACHE probing — each shard of the ShardedMCache
 *     processes its own signatures in stream order, independently of
 *     the other shards;
 *  3. in-order stitching — per-row result buffers are merged back
 *     into the Hitmap and SignatureTable in vector order.
 *
 * Stages 1 and 2 run across a ThreadPool when one is supplied, except
 * that a cache with a tenant quota is probed in stream order on the
 * calling thread (the quota couples the shards). The decomposition
 * is chosen so every configuration — any block size, shard count, or
 * thread count, including the threads = 1 degenerate case — produces
 * results bit-identical to the legacy detector: projections
 * accumulate in the same element order, and each MCACHE set (and each
 * tenant's quota budget) sees its signatures in the same stream
 * order.
 *
 * A pass finishes detecting before its consumer computes anything
 * (the host's one schedule, core/reuse_runtime.hpp). The paper's
 * Fig. 8 overlap of signature generation with PE work is an
 * accelerator property, priced by the cycle model
 * (PipelineConfig::overlap).
 */

#ifndef MERCURY_PIPELINE_DETECTION_PIPELINE_HPP
#define MERCURY_PIPELINE_DETECTION_PIPELINE_HPP

#include <cstdint>
#include <functional>

#include "core/rpq.hpp"
#include "core/similarity_detector.hpp"
#include "pipeline/sharded_mcache.hpp"
#include "sim/config.hpp"
#include "util/thread_pool.hpp"

namespace mercury {

/** Tuning knobs of the detection pipeline. */
struct PipelineConfig
{
    /**
     * Rows per projection work item (stage 1 granularity). 0 = auto:
     * resolved per pass to the sweep-tuned value for the pass size
     * (tunedPipelineFor, bench/sweep_tuning).
     */
    int64_t blockRows = 64;

    /**
     * MCACHE shards (stage 2 parallelism; clamped to the set count).
     * 0 = auto: resolved at cache construction to the thread-scaled
     * band (resolvedShards) — shards beyond the number of
     * concurrently probing threads only add merge overhead.
     */
    int shards = 4;

    /** Worker threads: 1 = run inline (legacy order), 0 = auto. */
    int threads = 1;

    /**
     * Overlap of detection with compute (§III-B, Fig. 8), as the
     * cycle model schedules the accelerator: when a layer's pass
     * resolves On, only the part of signature generation that exceeds
     * the layer's compute time stays on its modeled critical path.
     * This is the modeled schedule's input only — the host always
     * detects a pass fully before computing it, whatever the mode.
     * Auto resolves per pass from threads x rows (resolvedOverlapFor),
     * and the planner records the resolved value per layer.
     */
    OverlapMode overlap = OverlapMode::Off;

    /**
     * Rows below which Auto overlap resolves to Off: under ~4 blocks
     * of hashing there is no stream to hide the filter work behind.
     */
    static constexpr int64_t kAutoOverlapMinRows = 256;

    /**
     * The Auto policy, applied by resolvedFor(): Off/On pass through;
     * Auto becomes On iff the resolved thread count — capped by the
     * host's usable concurrency, so an oversubscribed knob on a
     * 1–2-core host still runs serial — is >= 3 (two workers minimum:
     * one hashing ahead while another filters, besides the driving
     * thread) and the pass has at least kAutoOverlapMinRows rows.
     */
    OverlapMode resolvedOverlapFor(int64_t rows) const;

    /**
     * Persistent MCACHE (serving layer): when true, passes do NOT
     * clear the cache first — tags survive across passes, so rows
     * similar to a *previous* request HIT instead of re-inserting.
     * Correctness is unchanged: result forwarding is strictly
     * within-pass (the engines compute a cross-pass HIT exactly, via
     * their per-pass owner bookkeeping / pass-local data planes), so
     * persistence trades only which rows count as hits. The §V
     * insert-backlog model is still reset per pass. Lifecycle
     * (eviction, epochs, quota) is driven by the cache owner; see
     * docs/ARCHITECTURE.md, "Serving layer".
     */
    bool persistent = false;

    /** Lift the pipeline knobs out of an accelerator configuration. */
    static PipelineConfig fromConfig(const AcceleratorConfig &cfg);

    /**
     * Effective knobs for a pass over `rows` vectors: blockRows == 0
     * (auto) resolves to the sweep-tuned block size for the pass
     * size, and overlap == Auto resolves to On/Off via
     * resolvedOverlapFor; explicit values pass through untouched.
     */
    PipelineConfig resolvedFor(int64_t rows) const;

    /**
     * Effective shard count for MCACHE construction: shards == 0
     * (auto) resolves to the tunedPipelineFor band for the resolved
     * thread count; explicit values pass through untouched (the
     * ShardedMCache still clamps to its set count).
     */
    int resolvedShards() const;
};

/**
 * Producer of the rows being detected (single-touch fused blocks):
 * when a pass is given a RowFiller, rows [row0, row1) of the row
 * tensor are materialized by calling it immediately before that
 * range is projected — extraction, projection, and sign-pack then
 * walk the block once while it is cache-hot, instead of extraction
 * streaming the whole tensor first. Fillers must write only their
 * [row0, row1) range (disjoint ranges run concurrently on the pool)
 * and must be callable from worker threads. Every row of the tensor
 * is filled exactly once per pass, so the tensor is fully
 * materialized by the time the pass returns — downstream filter
 * passes read it as if it had been pre-extracted.
 */
using RowFiller = std::function<void(int64_t row0, int64_t row1)>;

/** Batched, optionally multi-threaded similarity detection pass. */
class DetectionPipeline
{
  public:
    /**
     * @param rpq   signature engine for this vector dimension
     * @param cache sharded MCACHE (cleared at the start of each run)
     * @param bits  signature length
     * @param cfg   block size / shard / thread knobs
     * @param pool  worker pool for threads > 1; nullptr runs inline
     */
    DetectionPipeline(const RPQEngine &rpq, ShardedMCache &cache, int bits,
                      const PipelineConfig &cfg, ThreadPool *pool = nullptr);

    int signatureBits() const { return bits_; }

    /**
     * Detect similarity over the rows of a (num_vectors, d) matrix.
     * Clears the cache first (a new set of input vectors arrived,
     * §III-B3) and fills the hitmap and signature table in vector
     * order, exactly as SimilarityDetector::detect does. With a
     * RowFiller, each block's rows are materialized right before they
     * are projected (single-touch fused blocks).
     */
    DetectionResult run(const Tensor &rows,
                        const RowFiller &fill = {}) const;

  private:
    const RPQEngine &rpq_;
    ShardedMCache &cache_;
    int bits_;
    PipelineConfig cfg_;
    ThreadPool *pool_;
};

} // namespace mercury

#endif // MERCURY_PIPELINE_DETECTION_PIPELINE_HPP
