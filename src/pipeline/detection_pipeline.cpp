#include "pipeline/detection_pipeline.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/logging.hpp"

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

} // namespace mercury
