/**
 * @file
 * Golden-equivalence suite for ReuseRuntime and the conv lanes
 * (core/reuse_runtime.hpp): every engine pass — conv / FC / attention
 * x forward / backwardInput / backwardWeights|projection — must
 * produce bit-identical outputs AND statistics (mix, macsTotal,
 * macsSkipped, channelPasses) at one thread and at several; zero-hit
 * passes must be bit-identical to the exact tensor ops, including the
 * grouped and depthwise conv descriptors (the MobileNet-style
 * workload). Also: the scheduler contracts of row and scan passes
 * (rows in ascending order with their detection results, owners
 * compute before their HIT rows copy, replays never touch the MCACHE,
 * the scan before every finish item) and of ConvLanes::run (each item
 * once, no lane shared, lane caches in the frontend's geometry),
 * golden digests of the conv forwards whose passes depend on earlier
 * passes (persistent and quota'd caches),
 * end-to-end training of inverted-residual blocks with all three
 * reuse passes, and TSan stress for the sanitizer CI job.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/attention_engine.hpp"
#include "core/conv_reuse_engine.hpp"
#include "core/fc_engine.hpp"
#include "core/reuse_runtime.hpp"
#include "nn/blocks.hpp"
#include "nn/layers.hpp"
#include "nn/mercury_hooks.hpp"
#include "nn/network.hpp"
#include "pipeline/detection_frontend.hpp"
#include "pipeline/signature_record.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace mercury {
namespace {

constexpr int kSets = 64;
constexpr int kWays = 16;
constexpr int kVersions = 4;
constexpr uint64_t kSeed = 4242;

PipelineConfig
serialPipe()
{
    PipelineConfig pipe;
    pipe.blockRows = 16; // several blocks per pass
    pipe.shards = 4;
    pipe.threads = 1;
    return pipe;
}

PipelineConfig
threadedPipe()
{
    PipelineConfig pipe = serialPipe();
    pipe.threads = 4;
    return pipe;
}

ConvSpec
convSpec(int64_t cin, int64_t cout, int64_t k, int64_t stride = 1,
         int64_t pad = 0, int64_t groups = 1)
{
    ConvSpec spec;
    spec.inChannels = cin;
    spec.outChannels = cout;
    spec.kernelH = spec.kernelW = k;
    spec.stride = stride;
    spec.pad = pad;
    spec.groups = groups;
    return spec;
}

/** Input whose channel planes are built from a few prototype rows. */
Tensor
similarInput(int64_t n, int64_t c, int64_t h, int64_t w, float eps,
             uint64_t seed)
{
    Rng rng(seed);
    Tensor t({n, c, h, w});
    for (int64_t b = 0; b < n; ++b)
        for (int64_t ch = 0; ch < c; ++ch) {
            const float base = static_cast<float>(rng.normal());
            for (int64_t y = 0; y < h; ++y)
                for (int64_t x = 0; x < w; ++x)
                    t.at4(b, ch, y, x) =
                        base + eps * static_cast<float>(rng.normal());
        }
    return t;
}

/** (n, d) matrix of duplicated prototype rows (guaranteed hits). */
Tensor
duplicateRows(int64_t n, int64_t d, int64_t uniques, uint64_t seed)
{
    Rng rng(seed);
    Tensor proto({uniques, d});
    proto.fillNormal(rng);
    Tensor rows({n, d});
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < d; ++j)
            rows.at2(i, j) = proto.at2(i % uniques, j);
    return rows;
}

void
expectStatsEqual(const ReuseStats &a, const ReuseStats &b,
                 const char *what)
{
    EXPECT_EQ(a.mix.vectors, b.mix.vectors) << what;
    EXPECT_EQ(a.mix.hit, b.mix.hit) << what;
    EXPECT_EQ(a.mix.mau, b.mix.mau) << what;
    EXPECT_EQ(a.mix.mnu, b.mix.mnu) << what;
    EXPECT_EQ(a.macsTotal, b.macsTotal) << what;
    EXPECT_EQ(a.macsSkipped, b.macsSkipped) << what;
    EXPECT_EQ(a.channelPasses, b.channelPasses) << what;
}

// ---------------------------------------------------------------------
// Row-pass contract, tested directly against a recorded pass (no
// engine involved).
// ---------------------------------------------------------------------

TEST(RuntimeScheduler, RowPassForwardsAfterOwnersCompute)
{
    Tensor rows = duplicateRows(64, 12, 4, kSeed + 2);
    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed,
                         threadedPipe());
    SignatureRecord record;
    fe.detect(rows, 20, &record);
    const SignatureRecord::Pass &pass = record.pass(0);
    ASSERT_GT(pass.mix.hit, 0);
    std::vector<int64_t> owner;
    record.ownersOf(pass, owner);

    std::vector<std::atomic<int>> state(64); // 0 empty, 1 computed/copied
    for (auto &s : state)
        s.store(0);
    std::atomic<bool> copy_before_owner{false};

    ReuseRuntime rt(fe, 20);
    ReuseRuntime::RowPass rp;
    rp.ownerOf = [&](int64_t i, const McacheResult &) {
        return owner[static_cast<size_t>(i)];
    };
    rp.computeRow = [&](int64_t i) {
        state[static_cast<size_t>(i)].store(1);
    };
    rp.copyRow = [&](int64_t i, int64_t o) {
        if (state[static_cast<size_t>(o)].load() != 1)
            copy_before_owner.store(true);
        state[static_cast<size_t>(i)].store(1);
    };
    rp.rowSkipCost = 7;

    ReuseStats stats;
    rt.runRows(ReuseRuntime::StreamSource::replay(pass), rp, stats);
    EXPECT_FALSE(copy_before_owner.load())
        << "a HIT row was copied before its owner computed";
    for (int64_t i = 0; i < 64; ++i)
        EXPECT_EQ(state[static_cast<size_t>(i)].load(), 1) << i;
    EXPECT_EQ(stats.macsSkipped,
              static_cast<uint64_t>(pass.mix.hit) * 7u);
}

TEST(RuntimeScheduler, LivePassHandsRowsTheirResultsInAscendingOrder)
{
    // A live pass detects first, then visits every row once, in
    // ascending order, with that row's MCACHE result. The returned
    // result and the captured record are those of a plain detection
    // pass over the same rows, at one thread and at four.
    const Tensor rows = duplicateRows(96, 12, 10, kSeed + 3);
    for (const PipelineConfig &pipe : {serialPipe(), threadedPipe()}) {
        SCOPED_TRACE("threads=" + std::to_string(pipe.threads));
        DetectionFrontend ref_fe(kSets, kWays, kVersions, 32, kSeed, pipe);
        SignatureRecord ref_record;
        const DetectionResult ref = ref_fe.detect(rows, 20, &ref_record);
        ASSERT_GT(ref.mix().hit, 0);

        DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed, pipe);
        ReuseRuntime rt(fe, 20);
        std::vector<int64_t> visited;
        std::vector<McacheResult> seen;
        int64_t computed = 0;
        ReuseRuntime::RowPass rp;
        rp.ownerOf = [&](int64_t i, const McacheResult &res) {
            visited.push_back(i);
            seen.push_back(res);
            return i; // every row computes itself
        };
        rp.computeRow = [&](int64_t) { ++computed; };
        rp.copyRow = [&](int64_t i, int64_t) {
            ADD_FAILURE() << "row " << i << " copied without an owner";
        };
        rp.rowSkipCost = 5;

        SignatureRecord record;
        ReuseStats stats;
        const DetectionResult det = rt.runRows(
            ReuseRuntime::StreamSource::live(rows, &record), rp, stats);

        ASSERT_EQ(visited.size(), 96u);
        ASSERT_EQ(det.hitmap.size(), 96);
        for (int64_t i = 0; i < 96; ++i) {
            const size_t s = static_cast<size_t>(i);
            EXPECT_EQ(visited[s], i);
            EXPECT_EQ(seen[s].outcome, ref.hitmap.outcome(i)) << i;
            EXPECT_EQ(seen[s].entryId, ref.hitmap.entryId(i)) << i;
            EXPECT_EQ(det.hitmap.outcome(i), ref.hitmap.outcome(i)) << i;
            EXPECT_EQ(det.hitmap.entryId(i), ref.hitmap.entryId(i)) << i;
        }
        EXPECT_EQ(computed, 96);
        EXPECT_EQ(stats.macsSkipped, 0u);
        EXPECT_EQ(stats.mix.vectors, ref.mix().vectors);
        EXPECT_EQ(stats.mix.hit, ref.mix().hit);
        EXPECT_EQ(stats.mix.mau, ref.mix().mau);
        EXPECT_EQ(stats.mix.mnu, ref.mix().mnu);
        EXPECT_EQ(stats.channelPasses, 1);

        ASSERT_EQ(record.passCount(), 1);
        const SignatureRecord::Pass &got = record.pass(0);
        const SignatureRecord::Pass &want = ref_record.pass(0);
        EXPECT_EQ(got.rows, want.rows);
        EXPECT_EQ(got.sigWords, want.sigWords);
        EXPECT_EQ(got.entryIds, want.entryIds);
        EXPECT_EQ(got.outcomes, want.outcomes);
    }
}

TEST(RuntimeScheduler, ReplayPassesLeaveTheCacheUntouched)
{
    // Replays read the record only (§III-C2): no probe reaches the
    // MCACHE and the tags the forward left stay as they were. Rows
    // get a default result and their owner from the record; the
    // stats book the recorded mix once per pass.
    const Tensor rows = duplicateRows(80, 12, 6, kSeed + 5);
    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed,
                         threadedPipe());
    SignatureRecord record;
    fe.detect(rows, 20, &record);
    const SignatureRecord::Pass &pass = record.pass(0);
    ASSERT_GT(pass.mix.hit, 0);
    std::vector<int64_t> owner;
    record.ownersOf(pass, owner);

    const ShardedMCache &cache = fe.cache();
    const HitMix probes_before = cache.lookupMix();
    std::vector<bool> valid_before;
    std::vector<Signature> tags_before;
    for (int64_t e = 0; e < cache.entries(); ++e) {
        valid_before.push_back(cache.tagValid(e));
        if (cache.tagValid(e))
            tags_before.push_back(cache.tagAt(e));
    }

    ReuseRuntime rt(fe, 20);
    const McacheResult none;
    int64_t copies = 0;
    ReuseRuntime::RowPass rp;
    rp.ownerOf = [&](int64_t i, const McacheResult &res) {
        EXPECT_EQ(res.outcome, none.outcome) << i;
        EXPECT_EQ(res.entryId, none.entryId) << i;
        return owner[static_cast<size_t>(i)];
    };
    rp.computeRow = [](int64_t) {};
    rp.copyRow = [&](int64_t, int64_t) { ++copies; };
    rp.rowSkipCost = 3;
    ReuseRuntime::ScanPass sp;
    sp.scan = [](int64_t, int64_t) {};

    ReuseStats stats;
    const ReuseRuntime::StreamSource src =
        ReuseRuntime::StreamSource::replay(pass);
    EXPECT_EQ(rt.runRows(src, rp, stats).hitmap.size(), 0);
    EXPECT_EQ(rt.runScan(src, sp, stats).hitmap.size(), 0);

    EXPECT_EQ(copies, pass.mix.hit);
    EXPECT_EQ(stats.macsSkipped, static_cast<uint64_t>(pass.mix.hit) * 3u);
    EXPECT_EQ(stats.mix.hit, 2 * pass.mix.hit);
    EXPECT_EQ(stats.mix.mau, 2 * pass.mix.mau);
    EXPECT_EQ(stats.mix.mnu, 2 * pass.mix.mnu);
    EXPECT_EQ(stats.channelPasses, 2);

    const HitMix probes_after = cache.lookupMix();
    EXPECT_EQ(probes_after.vectors, probes_before.vectors);
    EXPECT_EQ(probes_after.hit, probes_before.hit);
    EXPECT_EQ(probes_after.mau, probes_before.mau);
    EXPECT_EQ(probes_after.mnu, probes_before.mnu);
    size_t t = 0;
    for (int64_t e = 0; e < cache.entries(); ++e) {
        ASSERT_EQ(cache.tagValid(e), valid_before[static_cast<size_t>(e)])
            << "entry " << e;
        if (cache.tagValid(e)) {
            EXPECT_TRUE(cache.tagAt(e) == tags_before[t++]) << "entry " << e;
        }
    }
}

TEST(RuntimeScheduler, ScanPassScansEveryRowBeforeAnyFinishItem)
{
    // A scan pass walks all rows in one ordered scan (group sums
    // depend on every earlier row), then runs each finish item once,
    // in ascending order — for a live source and for its replay.
    const Tensor rows = duplicateRows(70, 12, 7, kSeed + 6);
    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed,
                         threadedPipe());
    ReuseRuntime rt(fe, 20);
    SignatureRecord record;

    const auto runOnce = [&](const ReuseRuntime::StreamSource &src,
                             const char *what) {
        std::vector<std::pair<int64_t, int64_t>> scans;
        std::vector<int64_t> finished;
        ReuseRuntime::ScanPass sp;
        sp.scan = [&](int64_t r0, int64_t r1) {
            EXPECT_TRUE(finished.empty()) << what << ": scan after finish";
            scans.emplace_back(r0, r1);
        };
        sp.finishItems = 5;
        sp.finishItem = [&](int64_t item) {
            EXPECT_EQ(scans.size(), 1u) << what << ": finish before scan";
            finished.push_back(item);
        };
        ReuseStats stats;
        const DetectionResult det = rt.runScan(src, sp, stats);
        const std::vector<std::pair<int64_t, int64_t>> whole = {{0, 70}};
        EXPECT_EQ(scans, whole) << what;
        EXPECT_EQ(finished, (std::vector<int64_t>{0, 1, 2, 3, 4})) << what;
        EXPECT_EQ(stats.channelPasses, 1) << what;
        EXPECT_EQ(stats.macsSkipped, 0u) << what;
        return std::make_pair(det.hitmap.size(), stats.mix);
    };

    const auto live =
        runOnce(ReuseRuntime::StreamSource::live(rows, &record), "live");
    EXPECT_EQ(live.first, 70);
    ASSERT_EQ(record.passCount(), 1);
    const SignatureRecord::Pass &pass = record.pass(0);
    EXPECT_GT(pass.mix.hit, 0);
    EXPECT_EQ(live.second.hit, pass.mix.hit);
    EXPECT_EQ(live.second.mau, pass.mix.mau);
    EXPECT_EQ(live.second.mnu, pass.mix.mnu);

    const auto replayed =
        runOnce(ReuseRuntime::StreamSource::replay(pass), "replay");
    EXPECT_EQ(replayed.first, 0);
    EXPECT_EQ(replayed.second.hit, pass.mix.hit);
    EXPECT_EQ(replayed.second.mau, pass.mix.mau);
    EXPECT_EQ(replayed.second.mnu, pass.mix.mnu);
}

// ---------------------------------------------------------------------
// ConvLanes::run contract, tested directly (no engine involved).
// ---------------------------------------------------------------------

TEST(ConvLanes, EveryItemRunsOnceAndNoLaneIsShared)
{
    // One driver per lane claims items until none are left: each item
    // runs exactly once, a lane never runs two items at once, no more
    // lanes are built than executors or items, and the returned stats
    // are the sum of every lane's share.
    for (const int threads : {1, 2, 4, 8}) {
        PipelineConfig pipe = serialPipe();
        pipe.threads = threads;
        DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed, pipe);
        ThreadPool *pool = fe.workerPool();
        const int64_t executors = pool ? pool->workers() + 1 : 1;
        ConvLanes lanes;
        for (const int64_t items : {int64_t{2}, int64_t{3}, int64_t{64}}) {
            const std::string what = "threads " + std::to_string(threads) +
                                     " items " + std::to_string(items);
            std::vector<std::atomic<int>> runs(static_cast<size_t>(items));
            for (auto &r : runs)
                r.store(0);
            std::mutex m;
            std::map<const ConvLane *, int> in_flight;
            std::atomic<bool> shared{false};
            const ReuseStats total =
                lanes.run(fe, items, [&](ConvLane &lane, int64_t item) {
                    {
                        std::lock_guard<std::mutex> lock(m);
                        if (++in_flight[&lane] != 1)
                            shared.store(true);
                    }
                    runs[static_cast<size_t>(item)].fetch_add(1);
                    lane.stats.macsSkipped +=
                        static_cast<uint64_t>(item) + 1;
                    ++lane.stats.channelPasses;
                    std::this_thread::yield();
                    std::lock_guard<std::mutex> lock(m);
                    --in_flight[&lane];
                });
            EXPECT_FALSE(shared.load()) << what << ": a lane ran two items";
            for (int64_t i = 0; i < items; ++i)
                EXPECT_EQ(runs[static_cast<size_t>(i)].load(), 1)
                    << what << " item " << i;
            EXPECT_LE(static_cast<int64_t>(in_flight.size()),
                      std::min(executors, items))
                << what;
            EXPECT_EQ(lanes.count(), std::min(executors, items)) << what;
            EXPECT_EQ(total.channelPasses, items) << what;
            EXPECT_EQ(total.macsSkipped,
                      static_cast<uint64_t>(items * (items + 1) / 2))
                << what;
        }
    }
}

TEST(ConvLanes, SingleItemRunsOnTheDrivingThread)
{
    // One item — the dependent conv forward's shape — runs on the
    // driving thread, so it may call into the pool itself: here a
    // pooled detection pass through the frontend. Each run starts the
    // lanes' stats from zero, and zero items run nothing.
    DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed,
                         threadedPipe());
    ASSERT_NE(fe.workerPool(), nullptr);
    const Tensor rows = duplicateRows(64, 12, 4, kSeed + 4);
    DetectionFrontend ref_fe(kSets, kWays, kVersions, 32, kSeed,
                             serialPipe());
    const HitMix ref = ref_fe.detect(rows, 20).mix();
    ASSERT_GT(ref.hit, 0);

    ConvLanes lanes;
    const std::thread::id caller = std::this_thread::get_id();
    for (int rep = 0; rep < 2; ++rep) {
        int calls = 0;
        const ReuseStats total =
            lanes.run(fe, 1, [&](ConvLane &lane, int64_t item) {
                ++calls;
                EXPECT_EQ(item, 0);
                EXPECT_EQ(std::this_thread::get_id(), caller);
                lane.stats.mix += fe.detect(rows, 20).mix();
                ++lane.stats.channelPasses;
            });
        EXPECT_EQ(calls, 1);
        EXPECT_EQ(lanes.count(), 1);
        EXPECT_EQ(total.channelPasses, 1) << "rep " << rep;
        EXPECT_EQ(total.mix.hit, ref.hit) << "rep " << rep;
        EXPECT_EQ(total.mix.mau, ref.mau) << "rep " << rep;
        EXPECT_EQ(total.mix.mnu, ref.mnu) << "rep " << rep;
    }

    const ReuseStats none = lanes.run(fe, 0, [](ConvLane &, int64_t) {
        ADD_FAILURE() << "an item ran with zero items";
    });
    EXPECT_EQ(none.channelPasses, 0);
    EXPECT_EQ(none.mix.vectors, 0);
}

TEST(ConvLanes, LaneCachesFollowTheFrontendGeometry)
{
    // A lane cache takes the geometry of the frontend it runs for,
    // with one shard, and is rebuilt when a layer of another geometry
    // runs on the same lanes.
    PipelineConfig pipe = threadedPipe(); // 4 shards on the frontends
    DetectionFrontend a(kSets, kWays, kVersions, 32, kSeed, pipe);
    DetectionFrontend b(32, 8, 2, 32, kSeed, pipe);
    ConvLanes lanes;
    for (DetectionFrontend *fe : {&a, &b, &a}) {
        const ShardedMCache &geom = fe->cache();
        ASSERT_GT(geom.shardCount(), 1);
        std::atomic<int> checked{0};
        lanes.run(*fe, 8, [&](ConvLane &lane, int64_t) {
            ASSERT_NE(lane.cache, nullptr);
            EXPECT_EQ(lane.cache->sets(), geom.sets());
            EXPECT_EQ(lane.cache->ways(), geom.ways());
            EXPECT_EQ(lane.cache->dataVersions(), geom.dataVersions());
            EXPECT_EQ(lane.cache->shardCount(), 1);
            checked.fetch_add(1);
        });
        EXPECT_EQ(checked.load(), 8);
    }
}

// ---------------------------------------------------------------------
// Golden equivalence: conv — 1 thread == 4 threads, outputs AND stats
// for forward, backwardInput, and backwardWeights, across dense,
// strided+padded, grouped, and depthwise geometries.
// ---------------------------------------------------------------------

struct ConvCase
{
    const char *name;
    int64_t cin, cout, k, stride, pad, groups, hw;
};

class RuntimeConvGolden : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(RuntimeConvGolden, OneThreadEqualsFourThreadsAllThreePasses)
{
    const ConvCase &tc = GetParam();
    const ConvSpec spec =
        convSpec(tc.cin, tc.cout, tc.k, tc.stride, tc.pad, tc.groups);
    Tensor in = similarInput(2, tc.cin, tc.hw, tc.hw, 0.02f, kSeed + 10);
    Rng rng(kSeed + 11);
    Tensor w({tc.cout, tc.cin / tc.groups, tc.k, tc.k});
    w.fillNormal(rng);
    Tensor bias({tc.cout});
    bias.fillNormal(rng);
    const int64_t oh = spec.outH(tc.hw), ow = spec.outW(tc.hw);
    Tensor grad({2, tc.cout, oh, ow});
    grad.fillNormal(rng);

    DetectionFrontend serial_fe(kSets, kWays, kVersions, 20, kSeed,
                                serialPipe());
    DetectionFrontend threaded_fe(kSets, kWays, kVersions, 20, kSeed,
                                  threadedPipe());
    ConvReuseEngine serial(serial_fe, 16);
    ConvReuseEngine threaded(threaded_fe, 16);

    ReuseStats sf, of;
    SignatureRecord srec, orec;
    Tensor ys = serial.forward(in, w, bias, spec, sf, &srec);
    Tensor yo = threaded.forward(in, w, bias, spec, of, &orec);
    EXPECT_TRUE(ys == yo) << tc.name << " forward, max diff "
                          << ys.maxAbsDiff(yo);
    expectStatsEqual(sf, of, tc.name);
    ASSERT_GT(sf.mix.hit, 0) << tc.name
                             << ": similar input must produce hits";

    ReuseStats sb, ob;
    Tensor gs = serial.backwardInput(grad, w, spec, tc.hw, tc.hw, srec,
                                     sb);
    Tensor go = threaded.backwardInput(grad, w, spec, tc.hw, tc.hw, orec,
                                      ob);
    EXPECT_TRUE(gs == go) << tc.name << " backwardInput, max diff "
                          << gs.maxAbsDiff(go);
    expectStatsEqual(sb, ob, tc.name);

    ReuseStats sw, ow_;
    Tensor dws = serial.backwardWeights(in, grad, spec, srec, sw);
    Tensor dwo = threaded.backwardWeights(in, grad, spec, orec, ow_);
    EXPECT_TRUE(dws == dwo) << tc.name << " backwardWeights, max diff "
                            << dws.maxAbsDiff(dwo);
    expectStatsEqual(sw, ow_, tc.name);
}

TEST_P(RuntimeConvGolden, ZeroHitBitIdentityToExactOps)
{
    const ConvCase &tc = GetParam();
    const ConvSpec spec =
        convSpec(tc.cin, tc.cout, tc.k, tc.stride, tc.pad, tc.groups);
    Rng rng(kSeed + 20);
    Tensor in({1, tc.cin, tc.hw, tc.hw});
    in.fillNormal(rng); // white noise: no similarity at 32 bits
    Tensor w({tc.cout, tc.cin / tc.groups, tc.k, tc.k});
    w.fillNormal(rng);
    Tensor bias({tc.cout});
    bias.fillNormal(rng);
    const int64_t oh = spec.outH(tc.hw), ow = spec.outW(tc.hw);
    Tensor grad({1, tc.cout, oh, ow});
    grad.fillNormal(rng);

    for (const int threads : {1, 4}) {
        PipelineConfig pipe = serialPipe();
        pipe.threads = threads;
        DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed, pipe);
        ConvReuseEngine engine(fe, 32);
        ReuseStats fs;
        SignatureRecord record;
        Tensor y = engine.forward(in, w, bias, spec, fs, &record);
        ASSERT_EQ(fs.mix.hit, 0)
            << tc.name << ": white noise at 32 bits must not hit";
        // Forward accumulates per-channel partials (the Fig. 7
        // per-channel pass structure), so it matches conv2dForward's
        // single accumulation chain to float tolerance, not bit for
        // bit — the same contract test_reuse_engines pins.
        Tensor y_ref = conv2dForward(in, w, bias, spec);
        EXPECT_LT(y.maxAbsDiff(y_ref), 1e-5f)
            << tc.name << " threads " << threads << " forward";

        ReuseStats bs;
        Tensor gin = engine.backwardInput(grad, w, spec, tc.hw, tc.hw,
                                          record, bs);
        Tensor gin_ref =
            conv2dBackwardInput(grad, w, spec, tc.hw, tc.hw);
        EXPECT_TRUE(gin == gin_ref)
            << tc.name << " backwardInput, max diff "
            << gin.maxAbsDiff(gin_ref);

        ReuseStats ws;
        Tensor dw = engine.backwardWeights(in, grad, spec, record, ws);
        Tensor dw_ref = conv2dBackwardWeight(in, grad, spec);
        EXPECT_TRUE(dw == dw_ref)
            << tc.name << " backwardWeights, max diff "
            << dw.maxAbsDiff(dw_ref);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RuntimeConvGolden,
    ::testing::Values(
        ConvCase{"dense3x3", 4, 6, 3, 1, 1, 1, 8},
        ConvCase{"strided", 4, 6, 3, 2, 1, 1, 9},
        ConvCase{"grouped", 4, 6, 3, 1, 1, 2, 8},
        ConvCase{"depthwise", 6, 6, 3, 1, 1, 6, 8}),
    [](const ::testing::TestParamInfo<ConvCase> &info) {
        return info.param.name;
    });

// ---------------------------------------------------------------------
// Golden equivalence: FC and attention.
// ---------------------------------------------------------------------

TEST(RuntimeFcGolden, OneThreadEqualsFourThreadsAllThreePasses)
{
    Tensor in = duplicateRows(96, 12, 9, kSeed + 30);
    Rng rng(kSeed + 31);
    Tensor w({12, 10});
    w.fillNormal(rng);
    Tensor grad({96, 10});
    grad.fillNormal(rng);

    DetectionFrontend serial_fe(kSets, kWays, kVersions, 20, kSeed,
                                serialPipe());
    DetectionFrontend threaded_fe(kSets, kWays, kVersions, 20, kSeed,
                                  threadedPipe());
    FcEngine serial(serial_fe, 16);
    FcEngine threaded(threaded_fe, 16);

    ReuseStats sf, of;
    std::vector<int64_t> s_owners, o_owners;
    SignatureRecord srec, orec;
    Tensor ys = serial.forward(in, w, sf, &s_owners, &srec);
    Tensor yo = threaded.forward(in, w, of, &o_owners, &orec);
    EXPECT_TRUE(ys == yo) << "fc forward";
    EXPECT_EQ(s_owners, o_owners) << "owner maps must match";
    expectStatsEqual(sf, of, "fc forward");
    ASSERT_GT(sf.mix.hit, 0);

    ReuseStats sb, ob;
    Tensor gs = serial.backwardInput(grad, w, srec, sb);
    Tensor go = threaded.backwardInput(grad, w, orec, ob);
    EXPECT_TRUE(gs == go) << "fc backwardInput";
    expectStatsEqual(sb, ob, "fc backwardInput");

    ReuseStats sw, ow;
    Tensor dws = serial.backwardWeights(in, grad, srec, sw);
    Tensor dwo = threaded.backwardWeights(in, grad, orec, ow);
    EXPECT_TRUE(dws == dwo) << "fc backwardWeights";
    expectStatsEqual(sw, ow, "fc backwardWeights");
}

TEST(RuntimeFcGolden, ZeroHitBitIdentityToExactOps)
{
    Rng rng(kSeed + 40);
    Tensor in({64, 16});
    in.fillNormal(rng);
    Tensor w({16, 12});
    w.fillNormal(rng);
    Tensor grad({64, 12});
    grad.fillNormal(rng);

    for (const int threads : {1, 4}) {
        PipelineConfig pipe = serialPipe();
        pipe.threads = threads;
        DetectionFrontend fe(kSets, kWays, kVersions, 32, kSeed, pipe);
        FcEngine engine(fe, 32);
        ReuseStats fs;
        SignatureRecord record;
        Tensor y = engine.forward(in, w, fs, nullptr, &record);
        ASSERT_EQ(fs.mix.hit, 0);
        EXPECT_TRUE(y == matmul(in, w)) << "fc forward";

        ReuseStats bs;
        Tensor gin = engine.backwardInput(grad, w, record, bs);
        EXPECT_TRUE(gin == matmulTransposeB(grad, w))
            << "fc backwardInput";

        ReuseStats ws;
        Tensor dw = engine.backwardWeights(in, grad, record, ws);
        EXPECT_TRUE(dw == matmul(transpose2d(in), grad))
            << "fc backwardWeights";
    }
}

TEST(RuntimeAttentionGolden, OneThreadEqualsFourThreadsAllThreePasses)
{
    Tensor x = duplicateRows(48, 16, 7, kSeed + 50);
    Rng rng(kSeed + 51);
    Tensor grad({48, 16});
    grad.fillNormal(rng);

    DetectionFrontend serial_fe(kSets, kWays, kVersions, 20, kSeed,
                                serialPipe());
    DetectionFrontend threaded_fe(kSets, kWays, kVersions, 20, kSeed,
                                  threadedPipe());
    AttentionEngine serial(serial_fe, 16);
    AttentionEngine threaded(threaded_fe, 16);

    ReuseStats sf, of;
    SignatureRecord srec, orec;
    Tensor ys = serial.forward(x, sf, &srec);
    Tensor yo = threaded.forward(x, of, &orec);
    EXPECT_TRUE(ys == yo) << "attention forward";
    expectStatsEqual(sf, of, "attention forward");
    ASSERT_GT(sf.mix.hit, 0);

    ReuseStats sp, op;
    Tensor xtx_s = serial.backwardProjection(x, srec, 0, sp);
    Tensor xtx_o = threaded.backwardProjection(x, orec, 0, op);
    EXPECT_TRUE(xtx_s == xtx_o) << "attention projection";
    expectStatsEqual(sp, op, "attention projection");

    ReuseStats sb, ob;
    Tensor gs = serial.backward(x, grad, srec, 0, sb, &xtx_s);
    Tensor go = threaded.backward(x, grad, orec, 0, ob, &xtx_o);
    EXPECT_TRUE(gs == go) << "attention backward";
    expectStatsEqual(sb, ob, "attention backward");
}

// ---------------------------------------------------------------------
// Lane identity: conv passes dealt to per-executor lanes (images for
// forward and dX, (group, channel) columns for dW) must reproduce the
// 1-thread run bit for bit at any forced thread count — outputs,
// gradients, the captured SignatureRecord, and every statistic —
// including minibatches of one and minibatches the lane count does
// not divide. The persistent-cache mode (one lane, passes in order)
// is pinned the same way. Runs under TSan in CI.
// ---------------------------------------------------------------------

/** Everything one conv layer call produces through a context. */
struct LaneRun
{
    Tensor y, dx, dw;
    SignatureRecord record;
    ReuseStats fwd, bwd, wgrad;
};

LaneRun
runConvThroughContext(const ConvCase &tc, int64_t batch, int threads,
                      bool persistent)
{
    constexpr uint64_t kLayer = 7;
    const ConvSpec spec =
        convSpec(tc.cin, tc.cout, tc.k, tc.stride, tc.pad, tc.groups);
    Tensor in =
        similarInput(batch, tc.cin, tc.hw, tc.hw, 0.02f, kSeed + 90);
    Rng rng(kSeed + 91);
    Tensor w({tc.cout, tc.cin / tc.groups, tc.k, tc.k});
    w.fillNormal(rng);
    Tensor bias({tc.cout});
    bias.fillNormal(rng);
    Tensor grad({batch, tc.cout, spec.outH(tc.hw), spec.outW(tc.hw)});
    grad.fillNormal(rng);

    MercuryContext ctx(16, kSets, kWays, kVersions, kSeed);
    PipelineConfig pipe = serialPipe();
    pipe.threads = threads;
    pipe.persistent = persistent;
    ctx.setPipeline(pipe);
    ctx.setBackwardReuse(true);
    ctx.setWeightGradReuse(true);

    ConvReuseEngine engine(ctx.frontendFor(kLayer), ctx.signatureBits(),
                           &ctx.convLanes());
    LaneRun r;
    r.y = engine.forward(in, w, bias, spec, r.fwd, &r.record);
    r.dx = engine.backwardInput(grad, w, spec, tc.hw, tc.hw, r.record,
                                r.bwd);
    r.dw = engine.backwardWeights(in, grad, spec, r.record, r.wgrad);
    return r;
}

void
expectRecordsEqual(const SignatureRecord &a, const SignatureRecord &b,
                   const std::string &what)
{
    ASSERT_EQ(a.passCount(), b.passCount()) << what;
    EXPECT_EQ(a.dataVersions(), b.dataVersions()) << what;
    EXPECT_EQ(a.entries(), b.entries()) << what;
    for (int64_t i = 0; i < a.passCount(); ++i) {
        const SignatureRecord::Pass &pa = a.pass(i);
        const SignatureRecord::Pass &pb = b.pass(i);
        EXPECT_EQ(pa.rows, pb.rows) << what << " pass " << i;
        EXPECT_EQ(pa.bits, pb.bits) << what << " pass " << i;
        EXPECT_EQ(pa.sigWords, pb.sigWords) << what << " pass " << i;
        EXPECT_EQ(pa.entryIds, pb.entryIds) << what << " pass " << i;
        EXPECT_EQ(pa.outcomes, pb.outcomes) << what << " pass " << i;
        EXPECT_EQ(pa.mix.hit, pb.mix.hit) << what << " pass " << i;
        EXPECT_EQ(pa.mix.mau, pb.mix.mau) << what << " pass " << i;
        EXPECT_EQ(pa.mix.mnu, pb.mix.mnu) << what << " pass " << i;
    }
}

TEST(RuntimeLanes, EveryThreadCountMatchesOneThread)
{
    const ConvCase cases[] = {
        {"standard", 3, 8, 3, 1, 1, 1, 10},
        {"grouped", 8, 12, 3, 2, 1, 4, 11},
        {"depthwise", 6, 6, 3, 1, 1, 6, 9},
    };
    const struct
    {
        const char *name;
        bool persistent;
    } modes[] = {
        {"cleared", false},
        {"persistent", true},
    };
    // 1 image, and 5 images: not a multiple of 2, 4 or 8 lanes.
    for (const ConvCase &tc : cases) {
        for (const int64_t batch : {int64_t{1}, int64_t{5}}) {
            for (const auto &m : modes) {
                const LaneRun ref = runConvThroughContext(tc, batch, 1,
                                                          m.persistent);
                ASSERT_GT(ref.fwd.mix.hit, 0)
                    << tc.name << ": similar input must produce hits";
                for (const int threads : {2, 4, 8}) {
                    const std::string what =
                        std::string(tc.name) + " " + m.name + " batch " +
                        std::to_string(batch) + " threads " +
                        std::to_string(threads);
                    const LaneRun r =
                        runConvThroughContext(tc, batch, threads,
                                              m.persistent);
                    EXPECT_TRUE(r.y == ref.y) << what << " forward";
                    EXPECT_TRUE(r.dx == ref.dx) << what << " dX";
                    EXPECT_TRUE(r.dw == ref.dw) << what << " dW";
                    expectRecordsEqual(ref.record, r.record, what);
                    expectStatsEqual(ref.fwd, r.fwd, what.c_str());
                    expectStatsEqual(ref.bwd, r.bwd, what.c_str());
                    expectStatsEqual(ref.wgrad, r.wgrad, what.c_str());
                }
            }
        }
    }
}

TEST(RuntimeLanes, OneLanePerExecutorSharedAcrossLayers)
{
    // The context's lanes track its pool (workers + driving thread)
    // and serve every conv layer: two layers of different shapes run
    // on the same lanes without growing them.
    MercuryContext ctx(16, kSets, kWays, kVersions, kSeed);
    PipelineConfig pipe = serialPipe();
    pipe.threads = 3;
    ctx.setPipeline(pipe);
    Rng rng(kSeed + 92);
    Conv2dLayer a(3, 6, 3, 1, 1, rng, 1);
    Conv2dLayer b(6, 4, 3, 2, 1, rng, 2, 2);
    Tensor x = similarInput(6, 3, 10, 10, 0.02f, kSeed + 93);
    Tensor h = a.forward(x, &ctx);
    EXPECT_EQ(ctx.convLanes().count(), 3);
    b.forward(h, &ctx);
    EXPECT_EQ(ctx.convLanes().count(), 3);
    EXPECT_EQ(ctx.totals().channelPasses, 6 * 3 + 6 * 6);
}

// ---------------------------------------------------------------------
// Dependent-pass golden: on a persistent or quota'd cache a conv pass
// depends on the passes before it, so the forward runs its passes in
// (image, group, channel) order on the driving thread. Outputs, the
// captured record, the replayed gradients and every statistic are
// pinned to FNV-1a digests recorded from the previous (ReuseRuntime
// filter-pass) implementation of this path, at 1 and at 4 threads.
// ---------------------------------------------------------------------

uint64_t
fnv1a(uint64_t h, const void *data, size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ull;

uint64_t
digestOf(const Tensor &t)
{
    return fnv1a(kFnvBasis, t.data(),
                 static_cast<size_t>(t.numel()) * sizeof(float));
}

uint64_t
digestOf(const SignatureRecord &r)
{
    uint64_t h = kFnvBasis;
    for (int64_t i = 0; i < r.passCount(); ++i) {
        const SignatureRecord::Pass &p = r.pass(i);
        h = fnv1a(h, p.sigWords.data(), p.sigWords.size() * 8);
        h = fnv1a(h, p.entryIds.data(), p.entryIds.size() * 4);
        h = fnv1a(h, p.outcomes.data(), p.outcomes.size());
    }
    return h;
}

/** What one forward (plus its two replays) of the golden produces. */
struct DependentDigest
{
    uint64_t y, record, dx, dw;
    int64_t hit, mau, mnu, passes;
    uint64_t fwdSkipped, dxSkipped, dwSkipped;
};

struct DependentCase
{
    const char *name;
    bool persistent;
    int64_t quota; ///< tenant-1 line quota; 0 = none
    int forwards;  ///< consecutive forwards on one frontend
};

std::vector<DependentDigest>
runDependentConv(const DependentCase &dc, int threads)
{
    const ConvSpec spec = convSpec(4, 6, 3, 1, 1, 2);
    Tensor in = similarInput(3, 4, 8, 8, 0.02f, kSeed + 100);
    Rng rng(kSeed + 101);
    Tensor w({6, 2, 3, 3});
    w.fillNormal(rng);
    Tensor bias({6});
    bias.fillNormal(rng);
    Tensor grad({3, 6, 8, 8});
    grad.fillNormal(rng);

    PipelineConfig pipe = serialPipe();
    pipe.threads = threads;
    pipe.persistent = dc.persistent;
    DetectionFrontend fe(kSets, kWays, kVersions, 20, kSeed, pipe);
    if (dc.quota > 0) {
        fe.cache().setTenantQuota(dc.quota, /*max_tenants=*/4);
        fe.cache().setInsertTenant(1);
    }
    ConvReuseEngine engine(fe, 16);

    std::vector<DependentDigest> out;
    Rng perturb(kSeed + 102);
    for (int call = 0; call < dc.forwards; ++call) {
        if (call > 0) {
            // A slightly moved batch: most of its rows HIT the tags
            // the previous call left in the cache.
            for (int64_t i = 0; i < in.numel(); ++i)
                in[i] += 0.002f * static_cast<float>(perturb.normal());
        }
        ReuseStats fs, bs, ws;
        SignatureRecord record;
        const Tensor y = engine.forward(in, w, bias, spec, fs, &record);
        const Tensor dx =
            engine.backwardInput(grad, w, spec, 8, 8, record, bs);
        const Tensor dw =
            engine.backwardWeights(in, grad, spec, record, ws);
        out.push_back({digestOf(y), digestOf(record), digestOf(dx),
                       digestOf(dw), fs.mix.hit, fs.mix.mau, fs.mix.mnu,
                       fs.channelPasses, fs.macsSkipped, bs.macsSkipped,
                       ws.macsSkipped});
    }
    return out;
}

TEST(RuntimeLanes, DependentPassesMatchGoldenDigests)
{
    const DependentCase cases[] = {
        {"persistent", true, 0, 2},
        {"quota", false, 6, 1},
        {"persistent_quota", true, 40, 1},
    };
    // Per case, one row per forward call. Identical at every thread
    // count: the rows below hold at 1 and at 4 threads alike.
    const std::vector<DependentDigest> golden[] = {
        {{0x7127e5dd3e17a200ull, 0x809fdf3a0d2168ceull,
          0xd2b24fb3661167d4ull, 0x6d22e52d1575333full, 718, 50, 0, 12,
          3078, 3078, 3078},
         {0xb0521610a8ea1229ull, 0x1638b35fd192fe4full,
          0xba89767f8ddb1750ull, 0xb06e33b30f0f5edaull, 766, 2, 0, 12, 0,
          0, 0}},
        {{0x1277f294cc817bacull, 0xe28bce821ba222feull,
          0xd2e7eec8a7714c6full, 0xc8466f68394ec926ull, 361, 72, 335, 12,
          9747, 9747, 9747}},
        {{0xb1933290eb995c52ull, 0xa28687ebe33ffb77ull,
          0xdd08ec240c7ab4fbull, 0xc809e549c3803a25ull, 710, 40, 18, 12,
          2916, 2916, 2916}},
    };
    for (size_t c = 0; c < std::size(cases); ++c) {
        const DependentCase &dc = cases[c];
        for (const int threads : {1, 4}) {
            const std::vector<DependentDigest> got =
                runDependentConv(dc, threads);
            ASSERT_EQ(got.size(), golden[c].size()) << dc.name;
            for (size_t i = 0; i < got.size(); ++i) {
                const DependentDigest &g = got[i];
                const DependentDigest &e = golden[c][i];
                const std::string what = std::string(dc.name) +
                                         " threads " +
                                         std::to_string(threads) +
                                         " forward " + std::to_string(i);
                EXPECT_EQ(g.y, e.y) << what << " output";
                EXPECT_EQ(g.record, e.record) << what << " record";
                EXPECT_EQ(g.dx, e.dx) << what << " dX";
                EXPECT_EQ(g.dw, e.dw) << what << " dW";
                EXPECT_EQ(g.hit, e.hit) << what;
                EXPECT_EQ(g.mau, e.mau) << what;
                EXPECT_EQ(g.mnu, e.mnu) << what;
                EXPECT_EQ(g.passes, e.passes) << what;
                EXPECT_EQ(g.fwdSkipped, e.fwdSkipped) << what;
                EXPECT_EQ(g.dxSkipped, e.dxSkipped) << what;
                EXPECT_EQ(g.dwSkipped, e.dwSkipped) << what;
            }
        }
    }
}

// ---------------------------------------------------------------------
// End-to-end: MobileNet-style inverted residual blocks train with
// forward + dX + dW reuse through the grouped/depthwise descriptors.
// ---------------------------------------------------------------------

TEST(RuntimeTraining, InvertedResidualTrainsWithFullReuse)
{
    Rng rng(kSeed + 60);
    auto net = std::make_unique<Network>();
    net->add(std::make_unique<Conv2dLayer>(3, 8, 3, 1, 1, rng, 1));
    net->add(std::make_unique<ReluLayer>());
    net->add(std::make_unique<InvertedResidualBlock>(8, 8, 2, 1, rng, 2));
    net->add(std::make_unique<InvertedResidualBlock>(8, 12, 2, 1, rng, 3));
    net->add(std::make_unique<GlobalAvgPoolLayer>());
    net->add(std::make_unique<DenseLayer>(12, 4, rng, 64));

    Dataset ds = makeImageDataset(16, 4, 3, 8, kSeed + 61, 0.02f);
    MercuryContext ctx(16);
    PipelineConfig pipe = threadedPipe();
    ctx.setPipeline(pipe);
    ctx.setBackwardReuse(true);
    ctx.setWeightGradReuse(true);

    float first = 0, last = 0;
    for (int epoch = 0; epoch < 4; ++epoch) {
        const float loss =
            net->trainBatch(ds.inputs, ds.labels, 0.05f, &ctx);
        if (epoch == 0)
            first = loss;
        last = loss;
    }
    EXPECT_LT(last, first) << "reuse-perturbed training must learn";
    // All three passes rode the captured records — including the
    // depthwise convs, whose passes have exactly one filter each.
    EXPECT_GT(ctx.totals().macsSkipped, 0u);
    EXPECT_GT(ctx.backwardTotals().macsSkipped, 0u);
    EXPECT_GT(ctx.weightGradTotals().macsSkipped, 0u);
    EXPECT_GT(ctx.backwardTotals().mix.hit, 0);
}

TEST(RuntimeTraining, DepthwiseReuseMatchesSerialReference)
{
    // The same inverted-residual forward under a 1-thread context and
    // a 4-thread one must agree bit for bit (the golden engine
    // equivalences, composed through the NN layer path).
    Dataset ds = makeImageDataset(4, 4, 3, 8, kSeed + 62, 0.02f);

    Rng rng_a(kSeed + 63);
    InvertedResidualBlock a(3, 6, 2, 1, rng_a, 7);
    Rng rng_b(kSeed + 63);
    InvertedResidualBlock b(3, 6, 2, 1, rng_b, 7);

    MercuryContext serial_ctx(16);
    serial_ctx.setPipeline(serialPipe());
    MercuryContext threaded_ctx(16);
    threaded_ctx.setPipeline(threadedPipe());

    Tensor ya = a.forward(ds.inputs, &serial_ctx);
    Tensor yb = b.forward(ds.inputs, &threaded_ctx);
    EXPECT_TRUE(ya == yb) << "max diff " << ya.maxAbsDiff(yb);
}

// ---------------------------------------------------------------------
// Sanitizer stress (TSan CI): run all nine reuse passes back to back
// on a 4-thread frontend, so pooled detection, the conv lanes and
// their private PassDataPlanes see real contention.
// ---------------------------------------------------------------------

TEST(RuntimeStress, ThreadedPassesBackToBack)
{
    const ConvSpec spec = convSpec(6, 6, 3, 1, 1, 3);
    Tensor in = similarInput(1, 6, 8, 8, 0.02f, kSeed + 70);
    Rng rng(kSeed + 71);
    Tensor w({6, 2, 3, 3});
    w.fillNormal(rng);
    Tensor grad({1, 6, 8, 8});
    grad.fillNormal(rng);
    Tensor fc_in = duplicateRows(64, 10, 6, kSeed + 72);
    Tensor fc_w({10, 8});
    fc_w.fillNormal(rng);
    Tensor fc_grad({64, 8});
    fc_grad.fillNormal(rng);
    Tensor attn_x = duplicateRows(32, 12, 5, kSeed + 73);
    Tensor attn_grad({32, 12});
    attn_grad.fillNormal(rng);

    DetectionFrontend fe(kSets, kWays, kVersions, 20, kSeed,
                         threadedPipe());
    ConvReuseEngine conv(fe, 16);
    FcEngine fc(fe, 16);
    AttentionEngine attn(fe, 16);

    for (int iter = 0; iter < 3; ++iter) {
        ReuseStats stats;
        SignatureRecord record;
        Tensor y = conv.forward(in, w, Tensor(), spec, stats, &record);
        conv.backwardInput(grad, w, spec, 8, 8, record, stats);
        conv.backwardWeights(in, grad, spec, record, stats);

        fc.forward(fc_in, fc_w, stats, nullptr, &record);
        fc.backwardInput(fc_grad, fc_w, record, stats);
        fc.backwardWeights(fc_in, fc_grad, record, stats);

        // The attention engine appends to the record (its layer
        // clears once per forward invocation) — use a fresh one.
        SignatureRecord attn_record;
        attn.forward(attn_x, stats, &attn_record);
        ReuseStats pstats;
        Tensor xtx =
            attn.backwardProjection(attn_x, attn_record, 0, pstats);
        attn.backward(attn_x, attn_grad, attn_record, 0, pstats, &xtx);
        (void)y;
    }
    SUCCEED();
}

TEST(RuntimeStress, OneThreadEqualsEightThreadsUnderForcedStealing)
{
    // Forced-stealing configuration: more worker threads than the
    // host has cores and tiny blocks, so pooled detection floods the
    // work-stealing deques and thieves migrate blocks on every pass.
    // Outputs AND statistics must stay bit-identical to the 1-thread
    // run no matter which worker ran which block — the TSan CI job
    // runs this with stealing instrumented.
    PipelineConfig steal_pipe = serialPipe();
    steal_pipe.blockRows = 4; // many small blocks per pass
    steal_pipe.threads = 8;   // oversubscribes every CI host

    const ConvSpec spec = convSpec(4, 8, 3, 1, 1, 1);
    Tensor in = similarInput(2, 4, 12, 12, 0.02f, kSeed + 80);
    Rng rng(kSeed + 81);
    Tensor w({8, 4, 3, 3});
    w.fillNormal(rng);
    Tensor grad({2, 8, 12, 12});
    grad.fillNormal(rng);
    Tensor fc_in = duplicateRows(96, 12, 6, kSeed + 82);
    Tensor fc_w({12, 10});
    fc_w.fillNormal(rng);
    Tensor fc_grad({96, 10});
    fc_grad.fillNormal(rng);

    DetectionFrontend serial_fe(kSets, kWays, kVersions, 20, kSeed,
                                serialPipe());
    DetectionFrontend steal_fe(kSets, kWays, kVersions, 20, kSeed,
                               steal_pipe);
    ConvReuseEngine serial_conv(serial_fe, 16);
    ConvReuseEngine steal_conv(steal_fe, 16);
    FcEngine serial_fc(serial_fe, 16);
    FcEngine steal_fc(steal_fe, 16);

    for (int iter = 0; iter < 4; ++iter) {
        ReuseStats sf, of;
        SignatureRecord srec, orec;
        Tensor ys = serial_conv.forward(in, w, Tensor(), spec, sf, &srec);
        Tensor yo = steal_conv.forward(in, w, Tensor(), spec, of, &orec);
        ASSERT_TRUE(ys == yo) << "iter " << iter
                              << " conv forward, max diff "
                              << ys.maxAbsDiff(yo);
        expectStatsEqual(sf, of, "stealing conv forward");
        ASSERT_GT(sf.mix.hit, 0) << "reuse must engage for the stress";

        ReuseStats sb, ob;
        Tensor gs =
            serial_conv.backwardInput(grad, w, spec, 12, 12, srec, sb);
        Tensor go =
            steal_conv.backwardInput(grad, w, spec, 12, 12, orec, ob);
        ASSERT_TRUE(gs == go) << "iter " << iter
                              << " conv backwardInput, max diff "
                              << gs.maxAbsDiff(go);
        expectStatsEqual(sb, ob, "stealing conv backwardInput");

        ReuseStats sw, ow_;
        Tensor dws = serial_conv.backwardWeights(in, grad, spec, srec, sw);
        Tensor dwo = steal_conv.backwardWeights(in, grad, spec, orec, ow_);
        ASSERT_TRUE(dws == dwo) << "iter " << iter
                                << " conv backwardWeights, max diff "
                                << dws.maxAbsDiff(dwo);
        expectStatsEqual(sw, ow_, "stealing conv backwardWeights");

        ReuseStats sfc, ofc;
        SignatureRecord sfrec, ofrec;
        Tensor fys = serial_fc.forward(fc_in, fc_w, sfc, nullptr, &sfrec);
        Tensor fyo = steal_fc.forward(fc_in, fc_w, ofc, nullptr, &ofrec);
        ASSERT_TRUE(fys == fyo) << "iter " << iter << " fc forward";
        expectStatsEqual(sfc, ofc, "stealing fc forward");

        ReuseStats sfw, ofw;
        Tensor fdws =
            serial_fc.backwardWeights(fc_in, fc_grad, sfrec, sfw);
        Tensor fdwo = steal_fc.backwardWeights(fc_in, fc_grad, ofrec, ofw);
        ASSERT_TRUE(fdws == fdwo) << "iter " << iter
                                  << " fc backwardWeights";
        expectStatsEqual(sfw, ofw, "stealing fc backwardWeights");
    }
}

} // namespace
} // namespace mercury
