#include "core/reuse_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "core/kernels/kernels.hpp"

namespace mercury {

DetectionResult
ReuseRuntime::detect(const StreamSource &src)
{
    if (src.pass_)
        return DetectionResult();
    return fe_.detect(*src.rows_, bits_, src.capture_);
}

void
ReuseRuntime::addPassStats(const StreamSource &src,
                           const DetectionResult &det, ReuseStats &stats)
{
    stats.mix += src.isReplay() ? src.pass_->mix : det.mix();
    ++stats.channelPasses;
}

DetectionResult
ReuseRuntime::runRows(const StreamSource &src, const RowPass &pass,
                      ReuseStats &stats)
{
    const DetectionResult det = detect(src);
    const int64_t n = src.rowCount();
    const bool live = !src.isReplay();
    for (int64_t i = 0; i < n; ++i) {
        const McacheResult res =
            live ? McacheResult{det.hitmap.outcome(i),
                                det.hitmap.entryId(i)}
                 : McacheResult{};
        const int64_t o = pass.ownerOf(i, res);
        if (o != i) {
            pass.copyRow(i, o);
            stats.macsSkipped += pass.rowSkipCost;
            continue;
        }
        pass.computeRow(i);
    }
    addPassStats(src, det, stats);
    return det;
}

DetectionResult
ReuseRuntime::runScan(const StreamSource &src, const ScanPass &pass,
                      ReuseStats &stats)
{
    const DetectionResult det = detect(src);
    pass.scan(0, src.rowCount());
    for (int64_t i = 0; i < pass.finishItems; ++i)
        pass.finishItem(i);
    addPassStats(src, det, stats);
    return det;
}

ReuseStats
ConvLanes::run(DetectionFrontend &fe, int64_t items,
               const std::function<void(ConvLane &, int64_t)> &fn)
{
    ThreadPool *pool = fe.workerPool();
    const int64_t executors =
        pool ? static_cast<int64_t>(pool->workers()) + 1 : 1;
    const int64_t active = std::max<int64_t>(
        1, std::min<int64_t>(executors, items));
    const ShardedMCache &geom = fe.cache();
    while (count() < active)
        lanes_.push_back(std::make_unique<ConvLane>());
    for (int64_t i = 0; i < active; ++i) {
        ConvLane &lane = *lanes_[static_cast<size_t>(i)];
        if (!lane.cache || lane.cache->sets() != geom.sets() ||
            lane.cache->ways() != geom.ways() ||
            lane.cache->dataVersions() != geom.dataVersions()) {
            lane.cache = std::make_unique<ShardedMCache>(
                geom.sets(), geom.ways(), geom.dataVersions(), 1);
        }
        lane.stats = ReuseStats{};
    }

    if (active == 1) {
        for (int64_t i = 0; i < items; ++i)
            fn(*lanes_[0], i);
    } else {
        // One driver per lane; each claims items until none are left,
        // so uneven passes balance without a join per pass.
        std::atomic<int64_t> next{0};
        pool->parallelFor(active, [&](int64_t l) {
            ConvLane &lane = *lanes_[static_cast<size_t>(l)];
            for (int64_t i;
                 (i = next.fetch_add(1, std::memory_order_relaxed)) <
                 items;)
                fn(lane, i);
        });
    }

    ReuseStats total;
    for (int64_t i = 0; i < active; ++i)
        total += lanes_[static_cast<size_t>(i)]->stats;
    return total;
}

Tensor
weightGradReplay(ReuseRuntime &rt, const SignatureRecord &record,
                 const SignatureRecord::Pass &pass, const Tensor &a,
                 const Tensor &b, ReuseStats &stats)
{
    const int64_t n = pass.rows;
    const int64_t da = a.dim(1);
    const int64_t db = b.dim(1);
    std::vector<int64_t> owner;
    record.ownersOf(pass, owner);

    // Group sums over the pass's b-rows: the owner slot starts as a
    // copy of its own row (bit-exact for singleton groups), HIT rows
    // fold in with adds. Row order guarantees the owner's copy lands
    // before any of its hits accumulate. The buffer comes from
    // the runtime's scratch arena (no per-pass allocation); owner
    // slots are always copy-initialized before any read and
    // non-owner slots are never read, so it needs no zero fill.
    rt.scratch().reset();
    float *gsum = rt.scratch().floats(n * db);
    Tensor out({da, db});
    const kernels::KernelOps &k = kernels::ops();

    ReuseRuntime::ScanPass scan;
    scan.scan = [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
            const int64_t o = owner[static_cast<size_t>(r)];
            float *dst = gsum + o * db;
            const float *src = b.data() + r * db;
            if (o == r) {
                k.copySpan(dst, src, db);
            } else {
                k.addSpan(dst, src, db);
                stats.macsSkipped += static_cast<uint64_t>(da) *
                                     static_cast<uint64_t>(db);
            }
        }
    };
    // One output row j of At B: one multiply per group, owners
    // ascending — the same contraction order (and zero-skip) as
    // matmul(transpose2d(a), b) walks for row j.
    scan.finishItems = da;
    scan.finishItem = [&](int64_t j) {
        float *oj = out.data() + j * db;
        for (int64_t r = 0; r < n; ++r) {
            if (owner[static_cast<size_t>(r)] != r)
                continue;
            const float av = a.at2(r, j);
            if (av == 0.0f)
                continue;
            k.axpy(oj, av, gsum + r * db, db);
        }
    };

    rt.runScan(ReuseRuntime::StreamSource::replay(pass), scan, stats);
    return out;
}

} // namespace mercury
