/**
 * @file
 * DetectionFrontend: the one-stop similarity front-end the reuse
 * engines, workloads, and NN hooks consume.
 *
 * A frontend owns (or wraps) the MCACHE, provisions an RPQEngine per
 * vector dimension on demand, and routes every detection pass through
 * the batched DetectionPipeline — so callers no longer assemble
 * RPQEngine + MCache + SimilarityDetector by hand, and every consumer
 * picks up the pipeline knobs (block size, shards, threads) from one
 * place. It also reports the MCACHE geometry (entries, data
 * versions) that engines size their PassDataPlane and records by.
 *
 * With threads = 1 the frontend is the exact legacy path: results are
 * bit-identical to SimilarityDetector over a monolithic MCache, for
 * any block size and shard count.
 *
 * Concurrency contract: one thread drives a frontend's detection
 * passes (detect / detectSampled) at a time — the frontend fans work
 * out internally, and nothing else touches the cache while a pass
 * runs (see ShardedMCache's access patterns). The RPQ provisioning
 * map and the lazy pool are owned by the driving thread, so two
 * threads must not run passes on one frontend concurrently.
 */

#ifndef MERCURY_PIPELINE_DETECTION_FRONTEND_HPP
#define MERCURY_PIPELINE_DETECTION_FRONTEND_HPP

#include <cstdint>
#include <map>
#include <memory>

#include "core/rpq.hpp"
#include "core/similarity_detector.hpp"
#include "pipeline/detection_pipeline.hpp"
#include "pipeline/sharded_mcache.hpp"
#include "pipeline/signature_record.hpp"
#include "sim/config.hpp"
#include "util/thread_pool.hpp"

namespace mercury {

/** Pipeline-backed similarity detection front-end. */
class DetectionFrontend
{
  public:
    /**
     * Owning form: builds a ShardedMCache with the given organization.
     *
     * @param sets / ways / data_versions  MCACHE organization
     * @param max_bits  maximum signature length to provision per RPQ
     * @param seed      projection seed (shared by every vector dim)
     * @param pipe      pipeline knobs
     */
    DetectionFrontend(int sets, int ways, int data_versions, int max_bits,
                      uint64_t seed, PipelineConfig pipe = {});

    /**
     * View form: wrap an externally owned MCache (single shard). This
     * is how the legacy engine constructors share a caller-provided
     * cache; stage-1 blocking and threading still apply.
     */
    DetectionFrontend(MCache &cache, int max_bits, uint64_t seed,
                      PipelineConfig pipe = {});

    /**
     * Shared-cache form: run against an externally owned sharded
     * cache, which must outlive the frontend. Lets many frontends
     * (e.g. one per NN layer, each with its own projection seed)
     * share one MCACHE allocation; fine because every detection pass
     * clears the cache first.
     */
    DetectionFrontend(ShardedMCache &cache, int max_bits, uint64_t seed,
                      PipelineConfig pipe = {});

    /** MCACHE organization + pipeline knobs from an accelerator cfg. */
    DetectionFrontend(const AcceleratorConfig &cfg, uint64_t seed);

    DetectionFrontend(const DetectionFrontend &) = delete;
    DetectionFrontend &operator=(const DetectionFrontend &) = delete;

    int maxBits() const { return maxBits_; }
    uint64_t seed() const { return seed_; }
    const PipelineConfig &pipeline() const { return pipe_; }

    /**
     * Run passes on an externally owned worker pool instead of
     * creating a private one — lets many frontends (e.g. one per NN
     * layer) share a single pool. The pool must outlive the frontend;
     * passing nullptr reverts to the private pool.
     */
    void setSharedPool(ThreadPool *pool) { sharedPool_ = pool; }

    /**
     * Run one detection pass over a (num_vectors, d) matrix at the
     * given signature length. Clears the cache first; the RPQEngine
     * for dimension d is created on first use and reused afterwards.
     * When `capture` is non-null the pass is appended to the record
     * for later backward replay (§III-C2). A `fill` callback makes
     * the pass single-touch: each projection block fills its row
     * range of `rows` immediately before hashing it (see RowFiller).
     */
    DetectionResult detect(const Tensor &rows, int bits,
                           SignatureRecord *capture = nullptr,
                           const RowFiller &fill = {});

    /**
     * Detection bound to this frontend's RPQ engine and per-shape
     * knobs, run inline against a caller-owned cache: the conv lane
     * path (core/reuse_runtime.hpp, ConvLanes), where each pool
     * executor probes a private MCACHE with this frontend's geometry
     * so independent channel passes run side by side. Build it on the
     * driving thread (laneView provisions the RPQ engine and resolves
     * the knobs); the view itself is read-only, so any number of
     * threads may detect through it at once, each into its own cache.
     */
    class LaneView
    {
      public:
        /**
         * One pass over `rows` into `cache` on the calling thread:
         * the cache is cleared first, and the result is bit-identical
         * to detect() on this frontend (any shard or thread count).
         */
        DetectionResult detect(ShardedMCache &cache, const Tensor &rows,
                               const RowFiller &fill = {}) const;

      private:
        friend class DetectionFrontend;
        LaneView(const RPQEngine &rpq, const PipelineConfig &pipe,
                 int bits)
            : rpq_(rpq), pipe_(pipe), bits_(bits)
        {
        }

        const RPQEngine &rpq_;
        PipelineConfig pipe_;
        int bits_;
    };

    /** Lane view for passes of `rows` vectors of dimension `dim`. */
    LaneView laneView(int64_t rows, int64_t dim, int bits);

    /**
     * True when every pass starts from an empty cache — not
     * persistent and no tenant quota — so no pass depends on another
     * and passes may run on lanes in any order.
     */
    bool passesIndependent() const
    {
        return !pipe_.persistent && cache_->tenantQuota() == 0;
    }

    /**
     * The pool detection passes fan out to — shared pool if set,
     * otherwise the private pool for the configured thread knob.
     * nullptr when the resolved thread count is 1 (inline execution).
     */
    ThreadPool *workerPool() { return poolFor(); }

    /**
     * Memoized per-pass-size pipeline knobs: the auto knobs
     * (blockRows == 0 → tunedPipelineFor) are a pure function of the
     * pass size, yet every pass construction used to re-resolve them.
     * Resolution now happens once per distinct row count — at plan
     * bind (core/runtime_planner.hpp primes the memo) or on the first
     * unplanned pass of a shape — and knobResolutions() makes the
     * once-per-shape property assertable. `pipe_` is immutable after
     * construction, so memoized entries never go stale. Driving
     * thread only, like every pass entry point. (resolvedShards is
     * already resolved once, at cache construction.)
     */
    const PipelineConfig &resolvedPipeFor(int64_t rows);

    /** Knob resolutions performed (once per distinct pass size). */
    int64_t knobResolutions() const { return knobResolutions_; }

    /**
     * Statistical form for big layers: detect over at most
     * `max_sample` evenly strided rows and scale the mix back to the
     * full population. Exercises the identical pipeline path.
     */
    HitMix detectSampled(const Tensor &rows, int bits,
                         int64_t max_sample);

    /** The sharded cache behind the frontend. */
    ShardedMCache &cache() { return *cache_; }
    const ShardedMCache &cache() const { return *cache_; }

    /** MCACHE geometry (global entry ids), for the reuse engines. */
    int dataVersions() const { return cache_->dataVersions(); }
    int64_t entries() const { return cache_->entries(); }

  private:
    std::unique_ptr<ShardedMCache> ownedCache_;
    ShardedMCache *cache_; // owned or external
    PipelineConfig pipe_;
    int maxBits_;
    uint64_t seed_;
    std::map<int64_t, std::unique_ptr<RPQEngine>> rpqByDim_;
    std::unique_ptr<ThreadPool> pool_; // created lazily for threads > 1
    ThreadPool *sharedPool_ = nullptr; // externally owned override
    std::map<int64_t, PipelineConfig> resolvedByRows_; // knob memo
    int64_t knobResolutions_ = 0;

    RPQEngine &rpqFor(int64_t dim);
    ThreadPool *poolFor();
};

/**
 * Owned-or-shared frontend binding for the reuse engines: wraps a
 * caller-provided MCache in a private frontend view, or references a
 * shared DetectionFrontend, validating the signature length once in
 * one place for every engine.
 */
class FrontendHandle
{
  public:
    /** Private frontend view over a caller-owned cache. */
    FrontendHandle(MCache &cache, int sig_bits, uint64_t seed,
                   const PipelineConfig &pipe, const char *engine);

    /** Bind a shared frontend; sig_bits must fit its provisioning. */
    FrontendHandle(DetectionFrontend &frontend, int sig_bits,
                   const char *engine);

    /** Signature length the owning engine detects with. */
    int signatureBits() const { return sigBits_; }

    /** Access the bound frontend (owned or shared). */
    DetectionFrontend &operator*() const { return frontend_; }
    DetectionFrontend *operator->() const { return &frontend_; }

  private:
    std::unique_ptr<DetectionFrontend> owned_;
    DetectionFrontend &frontend_;
    int sigBits_;
};

} // namespace mercury

#endif // MERCURY_PIPELINE_DETECTION_FRONTEND_HPP
