#include "pipeline/detection_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/executors.hpp"
#include "util/logging.hpp"
#include "util/spsc_queue.hpp"

namespace mercury {

PipelineConfig
PipelineConfig::fromConfig(const AcceleratorConfig &cfg)
{
    PipelineConfig pipe;
    pipe.blockRows = cfg.pipelineBlockRows;
    pipe.shards = cfg.pipelineShards;
    pipe.threads = cfg.pipelineThreads;
    pipe.overlap = cfg.overlapDetection;
    pipe.persistent = cfg.persistentCache;
    return pipe;
}

int
PipelineConfig::resolvedShards() const
{
    if (shards != 0)
        return shards;
    // The band depends only on the probe parallelism available, not
    // the pass size (tunedPipelineFor keeps shards constant across
    // row bands).
    return tunedPipelineFor(1, ThreadPool::resolveThreads(threads))
        .shards;
}

OverlapMode
PipelineConfig::resolvedOverlapFor(int64_t rows) const
{
    if (overlap != OverlapMode::Auto)
        return overlap;
    // Overlap needs real parallelism to pay, so the host's usable
    // concurrency (resolveThreads(0) = hardware, clamped) caps the
    // count the policy sees: requesting 8 threads on a 1-core
    // container still resolves serial. Explicit On is untouched —
    // the cap is part of the Auto policy only.
    const int t = std::min(ThreadPool::resolveThreads(threads),
                           ThreadPool::resolveThreads(0));
    return (t >= 3 && rows >= kAutoOverlapMinRows) ? OverlapMode::On
                                                   : OverlapMode::Off;
}

PipelineConfig
PipelineConfig::resolvedFor(int64_t rows) const
{
    PipelineConfig resolved = *this;
    resolved.overlap = resolvedOverlapFor(rows);
    if (blockRows == 0) {
        resolved.blockRows =
            tunedPipelineFor(std::max<int64_t>(rows, 1),
                             ThreadPool::resolveThreads(threads))
                .blockRows;
    }
    return resolved;
}

DetectionPipeline::DetectionPipeline(const RPQEngine &rpq,
                                     ShardedMCache &cache, int bits,
                                     const PipelineConfig &cfg,
                                     ThreadPool *pool)
    : rpq_(rpq), cache_(cache), bits_(bits), cfg_(cfg), pool_(pool)
{
    if (bits <= 0 || bits > rpq.maxBits())
        panic("signature bits ", bits, " outside engine range 1..",
              rpq.maxBits());
    if (cfg_.blockRows <= 0)
        panic("pipeline block size must be positive, got ",
              cfg_.blockRows);
}

DetectionResult
DetectionPipeline::run(const Tensor &rows, const RowFiller &fill) const
{
    if (rows.rank() != 2 || rows.dim(1) != rpq_.vectorDim())
        panic("detect expects (n, ", rpq_.vectorDim(), ") got ",
              rows.shapeStr());
    if (cfg_.persistent)
        cache_.resetInsertBacklog(); // keep the §V drain cost per-pass
    else
        cache_.clear();
    const int64_t n = rows.dim(0);
    DetectionResult res;
    res.hitmap.reset(n);
    if (n == 0)
        return res;

    // Stage 1: blocked signature generation. Blocks write disjoint
    // ranges, so scheduling order is irrelevant; each signature (and
    // its global set index, computed here so the hash is taken once)
    // is identical to the scalar path's.
    std::vector<Signature> sigs(static_cast<size_t>(n));
    std::vector<int> set_of(static_cast<size_t>(n));
    const int64_t block = cfg_.blockRows;
    const int64_t blocks = (n + block - 1) / block;
    const auto project_block = [&](int64_t b) {
        const int64_t r0 = b * block;
        const int64_t r1 = std::min(n, r0 + block);
        if (fill)
            fill(r0, r1); // fused extraction: fill, then project, hot
        rpq_.signatureBlock(rows, r0, r1, bits_,
                            sigs.data() + static_cast<size_t>(r0));
        for (int64_t i = r0; i < r1; ++i)
            set_of[static_cast<size_t>(i)] =
                cache_.setIndexOf(sigs[static_cast<size_t>(i)]);
    };

    // Stage 2: sharded MCACHE probing. Each shard consumes its own
    // rows in stream order — exactly the order the monolithic cache
    // would have seen them. The buckets are filled by one ascending
    // walk, so per-shard order is stream order by construction. A
    // tenant quota couples the shards — every insert draws on one
    // per-tenant budget — so a quota'd pass probes all rows as one
    // ascending bucket on this thread: which inserts turn MNU once the
    // quota binds must not depend on the shard count or on timing.
    const int probers = cache_.tenantQuota() > 0 ? 1 : cache_.shardCount();
    std::vector<std::vector<int64_t>> prober_rows(
        static_cast<size_t>(probers));
    std::vector<McacheResult> results(static_cast<size_t>(n));
    const auto probe_bucket = [&](int64_t p) {
        for (const int64_t i : prober_rows[static_cast<size_t>(p)]) {
            results[static_cast<size_t>(i)] = cache_.lookupOrInsertInSet(
                set_of[static_cast<size_t>(i)],
                sigs[static_cast<size_t>(i)]);
        }
    };

    if (pool_ && pool_->workers() > 0) {
        pool_->parallelFor(blocks, project_block);
    } else {
        for (int64_t b = 0; b < blocks; ++b)
            project_block(b);
    }
    for (int64_t i = 0; i < n; ++i) {
        const int p =
            probers == 1
                ? 0
                : cache_.shardOfSet(set_of[static_cast<size_t>(i)]);
        prober_rows[static_cast<size_t>(p)].push_back(i);
    }
    if (pool_ && pool_->workers() > 0) {
        pool_->parallelFor(probers, probe_bucket); // inline for 1
    } else {
        for (int p = 0; p < probers; ++p)
            probe_bucket(p);
    }

    // Stage 3: stitch per-row buffers back in stream order.
    for (int64_t i = 0; i < n; ++i) {
        const McacheResult &r = results[static_cast<size_t>(i)];
        res.hitmap.record(i, r);
        res.table.append(std::move(sigs[static_cast<size_t>(i)]),
                         r.entryId);
    }
    return res;
}

namespace {

/**
 * Stage-1 (hashing) state of one streaming pass. With a pool, hash
 * tasks read the row tensor and the cache *geometry* only — never
 * tags — and a sequencer pushes finished blocks into the hand-off
 * queue in ascending order for the prober on the calling thread.
 */
struct HashJob
{
    HashJob(const Tensor &rows, const RPQEngine &rpq,
            const ShardedMCache &cache, int bits, int64_t block_rows,
            RowFiller fill)
        : rows(rows), fill(std::move(fill)), rpq(rpq), cache(cache),
          bits(bits), blockRows(block_rows), n(rows.dim(0)),
          blocks((n + block_rows - 1) / block_rows),
          sigs(static_cast<size_t>(n)), setOf(static_cast<size_t>(n)),
          results(static_cast<size_t>(n)),
          hashed(static_cast<size_t>(blocks), 0)
    {
    }

    /** Joins any outstanding hash tasks. */
    ~HashJob()
    {
        if (hashers)
            hashers->wait();
    }

    /**
     * Hash one block and precompute its set indices. With a filler,
     * the block's rows are extracted here first (the single-touch
     * fused walk: fill, project, sign-pack while hot).
     */
    void projectBlock(int64_t b)
    {
        const int64_t r0 = b * blockRows;
        const int64_t r1 = std::min(n, r0 + blockRows);
        if (fill)
            fill(r0, r1);
        rpq.signatureBlock(rows, r0, r1, bits,
                           sigs.data() + static_cast<size_t>(r0));
        for (int64_t i = r0; i < r1; ++i)
            setOf[static_cast<size_t>(i)] =
                cache.setIndexOf(sigs[static_cast<size_t>(i)]);
    }

    const Tensor &rows;
    RowFiller fill; ///< fused extraction; empty = rows pre-filled
    const RPQEngine &rpq;
    const ShardedMCache &cache; // geometry reads only while hashing
    int bits;
    int64_t blockRows;
    int64_t n;
    int64_t blocks;
    std::vector<Signature> sigs;
    std::vector<int> setOf;
    std::vector<McacheResult> results;
    // Sequencer state (pooled jobs): hash tasks finish in any order;
    // the frontier walk pushes them into the hand-off ascending.
    SpscQueue<int64_t> handoff;
    std::mutex seqMutex;
    std::vector<char> hashed;
    int64_t frontier = 0;
    std::atomic<int64_t> nextBlock{0};
    std::function<void()> hashOne;     // self-replenishing hash task
    std::unique_ptr<TaskGroup> hashers; // null: hash inline
};

} // namespace

DetectionResult
DetectionPipeline::runStreaming(const Tensor &rows,
                                const BlockConsumer &on_block,
                                RowFiller fill) const
{
    if (rows.rank() != 2 || rows.dim(1) != rpq_.vectorDim())
        panic("detect expects (n, ", rpq_.vectorDim(), ") got ",
              rows.shapeStr());
    HashJob job(rows, rpq_, cache_, bits_, cfg_.blockRows,
                std::move(fill));
    if (job.n > 0 && pool_ && pool_->workers() > 0) {
        // Hashing fans out to the pool in any order; a sequencer
        // pushes finished blocks into the hand-off queue in ascending
        // block order, and the loop below probes + delivers as they
        // arrive — overlapping stage 1 of later blocks with the
        // consumer's work on earlier ones (Fig. 8).
        //
        // Hash tasks are self-replenishing (each one grabs the next
        // unhashed block and resubmits) rather than enqueued all
        // up-front: with only ~workers in flight, hash and filter
        // tasks interleave instead of the hashing phase monopolizing
        // the pool. Under the work-stealing pool the resubmit lands in
        // the hashing worker's own deque (LIFO — it just touched the
        // row tensor, so the next block is cache-warm for it), idle
        // workers steal from the cold end, and the consumer's filter
        // chains live in other deques.
        HashJob *j = &job;
        j->hashers = std::make_unique<TaskGroup>(pool_);
        j->hashOne = [j] {
            const int64_t b =
                j->nextBlock.fetch_add(1, std::memory_order_relaxed);
            if (b >= j->blocks)
                return;
            j->projectBlock(b);
            {
                std::lock_guard<std::mutex> lock(j->seqMutex);
                j->hashed[static_cast<size_t>(b)] = 1;
                while (j->frontier < j->blocks &&
                       j->hashed[static_cast<size_t>(j->frontier)])
                    j->handoff.push(j->frontier++);
            }
            j->hashers->run(j->hashOne); // chain the next block
        };
        const int64_t seeds = std::min<int64_t>(
            j->blocks, static_cast<int64_t>(pool_->workers()) + 1);
        // Seed the self-replenishing chain as one batch: one lock and
        // one wakeup for the whole dependent group instead of a
        // notify per seed (ThreadPool::submitBatch).
        j->hashers->runBatch(seeds, j->hashOne);
    }

    // The new vector population arrived (§III-B3): clear the cache,
    // or, when persistent, only the per-pass §V insert backlog. The
    // hash tasks above never touch cache state, so this is safe while
    // they run.
    if (cfg_.persistent)
        cache_.resetInsertBacklog();
    else
        cache_.clear();
    const int64_t n = job.n;
    DetectionResult res;
    res.hitmap.reset(n);
    if (n == 0)
        return res;

    // Stage 2 + hand-off: probe one hashed block in global stream
    // order (caller thread only, so every MCACHE set sees the batch
    // path's order) and deliver it to the consumer.
    const auto probe_and_deliver = [&](int64_t b) {
        const int64_t r0 = b * job.blockRows;
        const int64_t r1 = std::min(n, r0 + job.blockRows);
        for (int64_t i = r0; i < r1; ++i) {
            // Pull row i+1's set into cache while row i's tag
            // compares run; the probe stream hops sets pseudo-
            // randomly, so the hardware prefetcher cannot help here.
            if (i + 1 < r1)
                cache_.prefetchSet(job.setOf[static_cast<size_t>(i + 1)]);
            job.results[static_cast<size_t>(i)] =
                cache_.lookupOrInsertInSet(
                    job.setOf[static_cast<size_t>(i)],
                    job.sigs[static_cast<size_t>(i)]);
        }
        if (on_block) {
            DetectionBlock blk;
            blk.index = b;
            blk.row0 = r0;
            blk.row1 = r1;
            blk.sigs = job.sigs.data() + static_cast<size_t>(r0);
            blk.results = job.results.data() + static_cast<size_t>(r0);
            on_block(blk);
        }
    };

    if (job.hashers) {
        for (int64_t delivered = 0; delivered < job.blocks; ++delivered) {
            int64_t b = -1;
            // Exactly `blocks` pushes occur and nobody closes the
            // queue, so pop() can only return false if the sequencer
            // logic breaks — defensive, loud, never expected to fire.
            if (!job.handoff.pop(b))
                panic("detection hand-off queue closed early");
            probe_and_deliver(b);
        }
        job.hashers->wait();
    } else {
        for (int64_t b = 0; b < job.blocks; ++b) {
            job.projectBlock(b);
            probe_and_deliver(b);
        }
    }

    // Stage 3: stitch, exactly as the batch path.
    for (int64_t i = 0; i < n; ++i) {
        const McacheResult &r = job.results[static_cast<size_t>(i)];
        res.hitmap.record(i, r);
        res.table.append(std::move(job.sigs[static_cast<size_t>(i)]),
                         r.entryId);
    }
    return res;
}

void
DetectionPipeline::replayStreaming(const SignatureRecord::Pass &pass,
                                   int64_t block_rows,
                                   const BlockConsumer &on_block,
                                   bool with_signatures)
{
    if (block_rows <= 0)
        panic("replay block size must be positive, got ", block_rows);
    const int64_t n = pass.rows;
    const int64_t blocks = (n + block_rows - 1) / block_rows;
    // Per-block scratch the DetectionBlock pointers alias: valid only
    // during the callback, exactly like a live pass's buffers.
    std::vector<Signature> sigs(
        with_signatures
            ? static_cast<size_t>(std::min<int64_t>(n, block_rows))
            : size_t{0});
    std::vector<McacheResult> results(static_cast<size_t>(
        std::min<int64_t>(n, block_rows)));
    for (int64_t b = 0; b < blocks; ++b) {
        const int64_t r0 = b * block_rows;
        const int64_t r1 = std::min(n, r0 + block_rows);
        if (with_signatures)
            pass.decodeSignatures(r0, r1, sigs.data());
        pass.decodeResults(r0, r1, results.data());
        if (on_block) {
            DetectionBlock blk;
            blk.index = b;
            blk.row0 = r0;
            blk.row1 = r1;
            blk.sigs = with_signatures ? sigs.data() : nullptr;
            blk.results = results.data();
            on_block(blk);
        }
    }
}

} // namespace mercury
