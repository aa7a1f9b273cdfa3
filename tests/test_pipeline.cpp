/**
 * @file
 * Tests for the batched detection pipeline (src/pipeline): the
 * ShardedMCache must be indistinguishable from a monolithic MCache,
 * the DetectionPipeline must be bit-identical to the legacy
 * SimilarityDetector for every block size / shard count / thread
 * count, reruns must be deterministic, the reuse engines must produce
 * identical outputs through a shared multi-threaded frontend, and the
 * fixed strided sampling must cover the population tail.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "core/attention_engine.hpp"
#include "core/conv_reuse_engine.hpp"
#include "core/fc_engine.hpp"
#include "core/pass_arena.hpp"
#include "core/similarity_detector.hpp"
#include "nn/mercury_hooks.hpp"
#include "pipeline/detection_frontend.hpp"
#include "pipeline/sharded_mcache.hpp"
#include "util/rng.hpp"
#include "util/sampling.hpp"
#include "util/thread_pool.hpp"
#include "workloads/synthetic.hpp"

namespace mercury {
namespace {

constexpr int kSets = 64;
constexpr int kWays = 16;
constexpr int kMaxBits = 32;
constexpr int kBits = 20;
constexpr uint64_t kSeed = 12345;

/** The scalar reference path: RPQ + monolithic MCACHE, row by row. */
DetectionResult
legacyDetect(const Tensor &rows)
{
    MCache cache(kSets, kWays, 1);
    RPQEngine rpq(rows.dim(1), kMaxBits, kSeed);
    SimilarityDetector det(rpq, cache, kBits);
    return det.detect(rows);
}

void
expectIdenticalResults(const DetectionResult &a, const DetectionResult &b)
{
    ASSERT_EQ(a.hitmap.size(), b.hitmap.size());
    for (int64_t i = 0; i < a.hitmap.size(); ++i) {
        ASSERT_EQ(a.hitmap.outcome(i), b.hitmap.outcome(i))
            << "outcome diverges at row " << i;
        ASSERT_EQ(a.hitmap.entryId(i), b.hitmap.entryId(i))
            << "entry id diverges at row " << i;
    }
    ASSERT_EQ(a.table.size(), b.table.size());
    for (int64_t i = 0; i < a.table.size(); ++i) {
        ASSERT_TRUE(a.table.signature(i) == b.table.signature(i))
            << "signature diverges at row " << i;
        ASSERT_EQ(a.table.entryId(i), b.table.entryId(i));
    }
    const HitMix ma = a.mix(), mb = b.mix();
    EXPECT_EQ(ma.vectors, mb.vectors);
    EXPECT_EQ(ma.hit, mb.hit);
    EXPECT_EQ(ma.mau, mb.mau);
    EXPECT_EQ(ma.mnu, mb.mnu);
}

TEST(Pipeline, BitIdenticalToLegacyAcrossAllKnobs)
{
    Tensor rows = prototypeVectors(512, 24, 64, 0.01f, 77, 1.2);
    const DetectionResult ref = legacyDetect(rows);
    for (int64_t block : {int64_t{1}, int64_t{7}, int64_t{64},
                          int64_t{4096}}) {
        for (int shards : {1, 3, 4, 64}) {
            for (int threads : {1, 2, 4}) {
                PipelineConfig pipe;
                pipe.blockRows = block;
                pipe.shards = shards;
                pipe.threads = threads;
                DetectionFrontend fe(kSets, kWays, 1, kMaxBits, kSeed,
                                     pipe);
                SCOPED_TRACE("block=" + std::to_string(block) +
                             " shards=" + std::to_string(shards) +
                             " threads=" + std::to_string(threads));
                expectIdenticalResults(fe.detect(rows, kBits), ref);
            }
        }
    }
}

TEST(Pipeline, QuotaBoundPassProbesInStreamOrder)
{
    // A tenant quota that binds partway through a pass: every insert
    // draws on one per-tenant budget across all shards, so which
    // inserts turn MNU depends on the global probe order. Shard count
    // and threads stay throughput knobs only if the pass keeps that
    // order, on every run.
    Rng rng(31);
    Tensor rows({4096, 16});
    rows.fillNormal(rng);
    const auto quotaDetect = [&rows](int shards, int threads) {
        PipelineConfig pipe;
        pipe.shards = shards;
        pipe.threads = threads;
        DetectionFrontend fe(256, 8, 1, kMaxBits, kSeed, pipe);
        fe.cache().setTenantQuota(1500, /*max_tenants=*/4);
        fe.cache().setInsertTenant(1);
        DetectionResult det = fe.detect(rows, 24);
        EXPECT_EQ(fe.cache().tenantReserved(1), 1500);
        return det;
    };
    const DetectionResult ref = quotaDetect(1, 1);
    ASSERT_EQ(ref.mix().mau, 1500);
    ASSERT_GT(ref.mix().mnu, 0);
    for (int rep = 0; rep < 20; ++rep) {
        for (int threads : {1, 4}) {
            for (int shards : {1, 4}) {
                SCOPED_TRACE("rep=" + std::to_string(rep) +
                             " threads=" + std::to_string(threads) +
                             " shards=" + std::to_string(shards));
                expectIdenticalResults(quotaDetect(shards, threads), ref);
            }
        }
    }
}

TEST(Pipeline, DeterministicReruns)
{
    Tensor rows = prototypeVectors(300, 16, 40, 0.02f, 5, 1.5);
    PipelineConfig pipe;
    pipe.blockRows = 32;
    pipe.shards = 8;
    pipe.threads = 4;
    DetectionFrontend fe(kSets, kWays, 1, kMaxBits, kSeed, pipe);
    const DetectionResult first = fe.detect(rows, kBits);
    // Same frontend again (cache cleared per pass) and a fresh
    // frontend with the same seed: all three must agree exactly.
    expectIdenticalResults(fe.detect(rows, kBits), first);
    DetectionFrontend fresh(kSets, kWays, 1, kMaxBits, kSeed, pipe);
    expectIdenticalResults(fresh.detect(rows, kBits), first);
}

TEST(Pipeline, RowFillerFillsEveryRowOnceAndMatchesPrefilledRows)
{
    // A fused pass materializes each block's rows right before it
    // hashes them: every row is filled exactly once (disjoint ranges,
    // also on the pool), the tensor ends fully materialized, and the
    // result equals a pass over the pre-filled rows. 500 rows in
    // blocks of 48 leave a ragged last block.
    const Tensor src = prototypeVectors(500, 24, 64, 0.01f, 77, 1.2);
    const DetectionResult ref = legacyDetect(src);
    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        PipelineConfig pipe;
        pipe.blockRows = 48;
        pipe.shards = 4;
        pipe.threads = threads;
        DetectionFrontend fe(kSets, kWays, 1, kMaxBits, kSeed, pipe);
        Tensor rows({src.dim(0), src.dim(1)});
        std::vector<std::atomic<int>> fills(static_cast<size_t>(src.dim(0)));
        for (auto &f : fills)
            f.store(0);
        const DetectionResult det = fe.detect(
            rows, kBits, nullptr, [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                    fills[static_cast<size_t>(r)].fetch_add(1);
                    for (int64_t j = 0; j < src.dim(1); ++j)
                        rows.at2(r, j) = src.at2(r, j);
                }
            });
        for (int64_t r = 0; r < src.dim(0); ++r)
            ASSERT_EQ(fills[static_cast<size_t>(r)].load(), 1) << "row " << r;
        EXPECT_TRUE(rows == src);
        expectIdenticalResults(det, ref);
    }
}

TEST(Pipeline, LaneViewMatchesFrontendDetectIntoAnyCache)
{
    // A lane view detects on the calling thread into a caller-owned
    // cache: the cache is cleared first, so tags of an earlier pass
    // never leak in, the frontend's own cache sees no probe, and the
    // result equals the frontend's pass at any shard or thread count.
    const Tensor rows = prototypeVectors(400, 24, 50, 0.01f, 78, 1.2);
    const Tensor other = prototypeVectors(400, 24, 50, 0.01f, 79, 1.2);
    const DetectionResult ref = legacyDetect(rows);
    for (int threads : {1, 4}) {
        for (int lane_shards : {1, 4}) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " lane_shards=" + std::to_string(lane_shards));
            PipelineConfig pipe;
            pipe.blockRows = 32;
            pipe.shards = 4;
            pipe.threads = threads;
            DetectionFrontend fe(kSets, kWays, 1, kMaxBits, kSeed, pipe);
            const DetectionFrontend::LaneView view =
                fe.laneView(rows.dim(0), rows.dim(1), kBits);
            ShardedMCache cache(kSets, kWays, 1, lane_shards);
            view.detect(cache, other);
            expectIdenticalResults(view.detect(cache, rows), ref);
            EXPECT_EQ(fe.cache().lookupMix().vectors, 0);
            expectIdenticalResults(fe.detect(rows, kBits), ref);
        }
    }
}

TEST(Pipeline, LaneViewDetectsConcurrentlyIntoPrivateCaches)
{
    // The conv lanes' shape: one view built on the driving thread,
    // several threads detecting through it at once, each with its own
    // cache and rows. Every result equals the serial pass over the
    // same rows. Runs under TSan in CI.
    constexpr int kLanes = 4;
    std::vector<Tensor> rows;
    std::vector<DetectionResult> refs;
    for (int l = 0; l < kLanes; ++l) {
        rows.push_back(prototypeVectors(300, 24, 40, 0.01f,
                                        static_cast<uint64_t>(90 + l),
                                        1.2));
        refs.push_back(legacyDetect(rows.back()));
    }
    PipelineConfig pipe;
    pipe.blockRows = 32;
    pipe.threads = 4;
    DetectionFrontend fe(kSets, kWays, 1, kMaxBits, kSeed, pipe);
    const DetectionFrontend::LaneView view = fe.laneView(300, 24, kBits);
    std::vector<DetectionResult> got(kLanes);
    std::vector<std::thread> lanes;
    for (int l = 0; l < kLanes; ++l) {
        lanes.emplace_back([&, l] {
            ShardedMCache cache(kSets, kWays, 1, 1);
            for (int rep = 0; rep < 3; ++rep)
                got[static_cast<size_t>(l)] =
                    view.detect(cache, rows[static_cast<size_t>(l)]);
        });
    }
    for (std::thread &t : lanes)
        t.join();
    for (int l = 0; l < kLanes; ++l) {
        SCOPED_TRACE("lane " + std::to_string(l));
        expectIdenticalResults(got[static_cast<size_t>(l)],
                               refs[static_cast<size_t>(l)]);
    }
}

TEST(Pipeline, BlockedProjectionMatchesScalar)
{
    Rng rng(9);
    Tensor rows({37, 48});
    rows.fillNormal(rng);
    RPQEngine rpq(48, kMaxBits, 21);
    std::vector<Signature> blocked(37);
    rpq.signatureBlock(rows, 0, 37, kBits, blocked.data());
    for (int64_t r = 0; r < 37; ++r)
        ASSERT_TRUE(blocked[static_cast<size_t>(r)] ==
                    rpq.signatureOfRow(rows, r, kBits))
            << "row " << r;
    // Projections themselves must also match bit for bit.
    std::vector<float> proj(static_cast<size_t>(5) * kBits);
    rpq.projectBlock(rows, 8, 13, kBits, proj.data());
    for (int64_t r = 8; r < 13; ++r)
        for (int n = 0; n < kBits; ++n)
            ASSERT_EQ(proj[static_cast<size_t>((r - 8) * kBits + n)],
                      rpq.project(rows.data() + r * 48, n));
}

TEST(ShardedMCache, MatchesMonolithicCache)
{
    MCache mono(37, 4, 2); // deliberately not a power of two
    ShardedMCache sharded(37, 4, 2, 5);
    EXPECT_EQ(sharded.entries(), mono.entries());
    EXPECT_EQ(sharded.shardCount(), 5);

    Rng rng(31);
    RPQEngine rpq(12, kMaxBits, 3);
    Tensor rows({400, 12});
    rows.fillNormal(rng);
    for (int64_t i = 0; i < rows.dim(0); ++i) {
        const Signature sig = rpq.signatureOfRow(rows, i, 24);
        const McacheResult a = mono.lookupOrInsert(sig);
        const McacheResult b = sharded.lookupOrInsert(sig);
        ASSERT_EQ(a.outcome, b.outcome) << "row " << i;
        ASSERT_EQ(a.entryId, b.entryId) << "row " << i;
    }
    EXPECT_EQ(sharded.maxInsertBacklog(), mono.maxInsertBacklog());
    const HitMix mix = sharded.lookupMix();
    EXPECT_TRUE(mix.consistent());
    EXPECT_EQ(mix.vectors, 400);
}

TEST(ShardedMCache, DataPlaneUsesGlobalEntryIds)
{
    // Entry ids are global (set * ways + way, as in one monolithic
    // cache), and every per-line accessor addresses lines by them.
    ShardedMCache sharded(16, 2, 3, 4);
    MCache mono(16, 2, 3);
    RPQEngine rpq(8, kMaxBits, 4);
    Rng rng(8);
    Tensor rows({40, 8});
    rows.fillNormal(rng);
    for (int64_t i = 0; i < rows.dim(0); ++i) {
        const int tenant = static_cast<int>(i % 3);
        sharded.setInsertTenant(tenant);
        mono.setInsertTenant(tenant);
        const Signature sig = rpq.signatureOfRow(rows, i, 24);
        const McacheResult r = sharded.lookupOrInsert(sig);
        EXPECT_EQ(r.entryId, mono.lookupOrInsert(sig).entryId);
        if (r.outcome != McacheOutcome::Mau)
            continue;
        EXPECT_TRUE(sharded.tagValid(r.entryId));
        EXPECT_TRUE(sharded.tagAt(r.entryId) == sig);
        EXPECT_EQ(sharded.entryTenant(r.entryId), tenant);
    }
    for (int64_t id = 0; id < sharded.entries(); ++id) {
        ASSERT_EQ(sharded.tagValid(id), mono.tagValid(id));
        if (mono.tagValid(id)) {
            EXPECT_TRUE(sharded.tagAt(id) == mono.tagOf(id));
            EXPECT_EQ(sharded.entryTenant(id), mono.entryTenant(id));
        }
    }
    sharded.clear();
    for (int64_t id = 0; id < sharded.entries(); ++id)
        EXPECT_FALSE(sharded.tagValid(id));
}

TEST(ShardedMCache, ShardCountClampedToSets)
{
    ShardedMCache sharded(4, 2, 1, 100);
    EXPECT_EQ(sharded.shardCount(), 4);
    EXPECT_EQ(sharded.entries(), 8);
}

TEST(ShardedMCache, ConcurrentHitForwardingWhileFiltersInFlight)
{
    // The data plane's contract: each version slot has one owner
    // thread, which forwards HITs of an earlier block (owner deposit
    // before hit read, in row order) while the calling thread keeps
    // probing later blocks into the same shards. The tag plane and the
    // value plane share nothing, so this runs without locks and every
    // HIT reads its owner's deposit.
    constexpr int kVersions = 4;
    constexpr int64_t kFirstBlock = 128;
    ShardedMCache cache(32, 4, kVersions, 8);
    RPQEngine rpq(16, kMaxBits, 5);
    const Tensor rows = prototypeVectors(512, 16, 24, 0.001f, 41);

    std::vector<McacheResult> probed;
    for (int64_t i = 0; i < kFirstBlock; ++i)
        probed.push_back(
            cache.lookupOrInsert(rpq.signatureOfRow(rows, i, 24)));
    int64_t hits = 0;
    for (const McacheResult &r : probed)
        hits += r.outcome == McacheOutcome::Hit;
    ASSERT_GE(hits, 16);

    PassDataPlane plane;
    plane.configure(cache.entries(), kVersions);
    std::vector<std::thread> owners;
    std::atomic<int64_t> forwarded{0};
    std::atomic<bool> mismatch{false};
    for (int ver = 0; ver < kVersions; ++ver) {
        owners.emplace_back([&, ver] {
            for (const McacheResult &r : probed) {
                const float value =
                    static_cast<float>(r.entryId * kVersions + ver);
                if (r.outcome == McacheOutcome::Mau) {
                    plane.write(r.entryId, ver, value);
                } else if (r.outcome == McacheOutcome::Hit) {
                    float got = 0.0f;
                    if (!plane.readIfValid(r.entryId, ver, got) ||
                        got != value)
                        mismatch.store(true);
                    forwarded.fetch_add(1);
                }
            }
        });
    }
    for (int64_t i = kFirstBlock; i < rows.dim(0); ++i)
        (void)cache.lookupOrInsert(rpq.signatureOfRow(rows, i, 24));
    for (std::thread &t : owners)
        t.join();

    EXPECT_FALSE(mismatch.load());
    EXPECT_EQ(forwarded.load(), hits * kVersions);
    const HitMix mix = cache.lookupMix();
    EXPECT_TRUE(mix.consistent());
    EXPECT_EQ(mix.vectors, rows.dim(0));
}

TEST(ShardedMCache, QuotaMaxTenantsFollowsTheGate)
{
    // Snapshot restore checks line tenants against this bound, so it
    // must track every setTenantQuota call, including disabling.
    ShardedMCache cache(16, 2, 1, 4);
    EXPECT_EQ(cache.quotaMaxTenants(), 0);
    cache.setTenantQuota(5, /*max_tenants=*/8);
    EXPECT_EQ(cache.tenantQuota(), 5);
    EXPECT_EQ(cache.quotaMaxTenants(), 8);
    cache.setTenantQuota(3, /*max_tenants=*/2);
    EXPECT_EQ(cache.quotaMaxTenants(), 2);
    cache.setTenantQuota(0);
    EXPECT_EQ(cache.tenantQuota(), 0);
    EXPECT_EQ(cache.quotaMaxTenants(), 0);
}

TEST(Pipeline, ConvEngineIdenticalThroughSharedThreadedFrontend)
{
    Dataset ds = makeImageDataset(2, 2, 3, 12, 13, 0.03f);
    Rng rng(14);
    Tensor w({4, 3, 3, 3});
    w.fillNormal(rng);
    ConvSpec spec;
    spec.inChannels = 3;
    spec.outChannels = 4;
    spec.kernelH = spec.kernelW = 3;
    spec.pad = 1;

    MCache legacy_cache(kSets, kWays, 2);
    ConvReuseEngine legacy(legacy_cache, 16, kSeed);
    ReuseStats legacy_stats;
    const Tensor legacy_out =
        legacy.forward(ds.inputs, w, Tensor(), spec, legacy_stats);

    PipelineConfig pipe;
    pipe.blockRows = 16;
    pipe.shards = 8;
    pipe.threads = 4;
    DetectionFrontend fe(kSets, kWays, 2, 16, kSeed, pipe);
    ConvReuseEngine piped(fe, 16);
    ReuseStats piped_stats;
    const Tensor piped_out =
        piped.forward(ds.inputs, w, Tensor(), spec, piped_stats);

    EXPECT_TRUE(piped_out == legacy_out);
    EXPECT_EQ(piped_stats.mix.hit, legacy_stats.mix.hit);
    EXPECT_EQ(piped_stats.mix.mau, legacy_stats.mix.mau);
    EXPECT_EQ(piped_stats.mix.mnu, legacy_stats.mix.mnu);
    EXPECT_EQ(piped_stats.macsSkipped, legacy_stats.macsSkipped);
}

TEST(Pipeline, FcEngineIdenticalThroughSharedThreadedFrontend)
{
    Tensor input = prototypeVectors(96, 20, 12, 0.005f, 15);
    Rng rng(16);
    Tensor w({20, 10});
    w.fillNormal(rng);

    MCache legacy_cache(kSets, kWays, 1);
    FcEngine legacy(legacy_cache, 24, kSeed);
    ReuseStats legacy_stats;
    std::vector<int64_t> legacy_owners;
    const Tensor legacy_out =
        legacy.forward(input, w, legacy_stats, &legacy_owners);

    PipelineConfig pipe;
    pipe.blockRows = 8;
    pipe.shards = 4;
    pipe.threads = 3;
    DetectionFrontend fe(kSets, kWays, 1, 24, kSeed, pipe);
    FcEngine piped(fe, 24);
    ReuseStats piped_stats;
    std::vector<int64_t> piped_owners;
    const Tensor piped_out =
        piped.forward(input, w, piped_stats, &piped_owners);

    EXPECT_TRUE(piped_out == legacy_out);
    EXPECT_EQ(piped_owners, legacy_owners);
    EXPECT_EQ(piped_stats.macsSkipped, legacy_stats.macsSkipped);
}

TEST(Sampling, StridedIndicesCoverTheWholeRange)
{
    // 1000 rows sampled 300 times: the truncating stride (3) never
    // got past row 897; round-to-nearest must reach the tail.
    int64_t prev = -1;
    for (int64_t i = 0; i < 300; ++i) {
        const int64_t idx = stridedSampleIndex(i, 1000, 300);
        EXPECT_GT(idx, prev); // strictly increasing
        EXPECT_LT(idx, 1000);
        prev = idx;
    }
    EXPECT_GE(prev, 990); // last pick lands in the tail
    // Exact divisors reproduce the legacy indices.
    for (int64_t i = 0; i < 512; ++i)
        EXPECT_EQ(stridedSampleIndex(i, 4096, 512), i * 8);
}

TEST(Sampling, DetectSampledSeesTheTail)
{
    // Head: one hot prototype; tail: 100 i.i.d. random rows. The old
    // truncating stride sampled the head only and extrapolated ~all
    // hits; covering the tail recovers the real unique count.
    Rng rng(17);
    Tensor rows({1000, 16});
    std::vector<float> proto(16);
    for (auto &v : proto)
        v = static_cast<float>(rng.normal());
    for (int64_t i = 0; i < 900; ++i)
        for (int64_t j = 0; j < 16; ++j)
            rows.at2(i, j) = proto[static_cast<size_t>(j)];
    for (int64_t i = 900; i < 1000; ++i)
        for (int64_t j = 0; j < 16; ++j)
            rows.at2(i, j) = static_cast<float>(rng.normal());

    RPQEngine rpq(16, kMaxBits, 18);
    MCache full_cache(kSets, kWays, 1), samp_cache(kSets, kWays, 1);
    SimilarityDetector full(rpq, full_cache, 24);
    SimilarityDetector samp(rpq, samp_cache, 24);
    const HitMix f = full.detect(rows).mix();
    const HitMix s = samp.detectSampled(rows, 300);
    EXPECT_EQ(s.vectors, 1000);
    // ~101 uniques in the full pass; the truncating stride reported
    // ~3. Require the sampled estimate to land near the truth.
    EXPECT_GT(f.mau, 90);
    EXPECT_NEAR(static_cast<double>(s.mau), static_cast<double>(f.mau),
                0.25 * static_cast<double>(f.mau));

    // The pipeline frontend shares the same sampling path.
    PipelineConfig pipe;
    pipe.threads = 2;
    pipe.shards = 4;
    DetectionFrontend fe(kSets, kWays, 1, kMaxBits, 18, pipe);
    const HitMix p = fe.detectSampled(rows, 24, 300);
    EXPECT_EQ(p.hit, s.hit);
    EXPECT_EQ(p.mau, s.mau);
    EXPECT_EQ(p.mnu, s.mnu);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.workers(), 3);
    std::vector<std::atomic<int>> visits(257);
    for (auto &v : visits)
        v.store(0);
    pool.parallelFor(257, [&](int64_t i) {
        visits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (size_t i = 0; i < visits.size(); ++i)
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, EmptyPoolRunsInline)
{
    ThreadPool pool(0);
    int64_t sum = 0;
    pool.parallelFor(100, [&](int64_t i) { sum += i; });
    EXPECT_EQ(sum, 4950);
    EXPECT_GE(ThreadPool::resolveThreads(0), 1);
    EXPECT_EQ(ThreadPool::resolveThreads(7), 7);
}

TEST(ThreadPool, NegativeThreadKnobDies)
{
    EXPECT_DEATH(ThreadPool::resolveThreads(-1), ">= 0");
}

TEST(Pipeline, MercuryContextCachesFrontendsAndMatchesLegacy)
{
    Tensor input = prototypeVectors(64, 12, 8, 0.005f, 19);
    Rng rng(20);
    Tensor w({12, 6});
    w.fillNormal(rng);

    MercuryContext legacy_ctx(16);
    FcEngine legacy(legacy_ctx.cache(), 16, legacy_ctx.layerSeed(3));
    ReuseStats legacy_stats;
    const Tensor legacy_out = legacy.forward(input, w, legacy_stats);

    MercuryContext ctx(16);
    PipelineConfig pipe;
    pipe.blockRows = 16;
    pipe.shards = 4;
    pipe.threads = 3;
    ctx.setPipeline(pipe);
    DetectionFrontend &fe = ctx.frontendFor(3);
    EXPECT_EQ(&fe, &ctx.frontendFor(3)); // cached across passes
    FcEngine piped(fe, 16);
    ReuseStats piped_stats;
    const Tensor piped_out = piped.forward(input, w, piped_stats);

    EXPECT_TRUE(piped_out == legacy_out);
    EXPECT_EQ(piped_stats.mix.hit, legacy_stats.mix.hit);
    EXPECT_EQ(piped_stats.mix.mau, legacy_stats.mix.mau);
}

/** Engine outputs at 1 thread vs several, all three engine types. */
TEST(ThreadCount, ConvEngineBitIdenticalAtOneAndFourThreads)
{
    Dataset ds = makeImageDataset(2, 2, 3, 14, 13, 0.03f);
    Rng rng(14);
    Tensor w({6, 3, 3, 3});
    w.fillNormal(rng);
    ConvSpec spec;
    spec.inChannels = 3;
    spec.outChannels = 6; // more filters than data versions
    spec.kernelH = spec.kernelW = 3;
    spec.pad = 1;

    PipelineConfig serial_pipe;
    serial_pipe.blockRows = 16;
    serial_pipe.shards = 8;
    serial_pipe.threads = 1;
    DetectionFrontend serial_fe(kSets, kWays, 2, 16, kSeed, serial_pipe);
    ConvReuseEngine serial(serial_fe, 16);
    ReuseStats serial_stats;
    const Tensor serial_out =
        serial.forward(ds.inputs, w, Tensor(), spec, serial_stats);

    PipelineConfig pipe = serial_pipe;
    pipe.threads = 4;
    DetectionFrontend fe(kSets, kWays, 2, 16, kSeed, pipe);
    ConvReuseEngine threaded(fe, 16);
    ReuseStats stats;
    const Tensor out =
        threaded.forward(ds.inputs, w, Tensor(), spec, stats);

    EXPECT_TRUE(out == serial_out);
    EXPECT_EQ(stats.mix.hit, serial_stats.mix.hit);
    EXPECT_EQ(stats.mix.mau, serial_stats.mix.mau);
    EXPECT_EQ(stats.mix.mnu, serial_stats.mix.mnu);
    EXPECT_EQ(stats.macsSkipped, serial_stats.macsSkipped);
    EXPECT_EQ(stats.macsTotal, serial_stats.macsTotal);
}

TEST(ThreadCount, FcEngineBitIdenticalAtOneAndFourThreads)
{
    Tensor input = prototypeVectors(160, 20, 24, 0.005f, 15);
    Rng rng(16);
    Tensor w({20, 10});
    w.fillNormal(rng);

    MCache legacy_cache(kSets, kWays, 1);
    FcEngine legacy(legacy_cache, 24, kSeed);
    ReuseStats legacy_stats;
    std::vector<int64_t> legacy_owners;
    const Tensor legacy_out =
        legacy.forward(input, w, legacy_stats, &legacy_owners);

    PipelineConfig pipe;
    pipe.blockRows = 16;
    pipe.shards = 4;
    pipe.threads = 4;
    DetectionFrontend fe(kSets, kWays, 1, 24, kSeed, pipe);
    FcEngine threaded(fe, 24);
    ReuseStats stats;
    std::vector<int64_t> owners;
    const Tensor out = threaded.forward(input, w, stats, &owners);

    EXPECT_TRUE(out == legacy_out);
    EXPECT_EQ(owners, legacy_owners);
    EXPECT_EQ(stats.macsSkipped, legacy_stats.macsSkipped);
    EXPECT_EQ(stats.mix.hit, legacy_stats.mix.hit);
}

TEST(ThreadCount, AttentionEngineBitIdenticalAtOneAndFourThreads)
{
    Tensor x = prototypeVectors(96, 16, 12, 0.004f, 23, 1.1);

    MCache legacy_cache(kSets, kWays, 1);
    AttentionEngine legacy(legacy_cache, 20, kSeed);
    ReuseStats legacy_stats;
    const Tensor legacy_out = legacy.forward(x, legacy_stats);

    PipelineConfig pipe;
    pipe.blockRows = 8;
    pipe.shards = 4;
    pipe.threads = 4;
    DetectionFrontend fe(kSets, kWays, 1, 20, kSeed, pipe);
    AttentionEngine threaded(fe, 20);
    ReuseStats stats;
    const Tensor out = threaded.forward(x, stats);

    EXPECT_TRUE(out == legacy_out);
    EXPECT_EQ(stats.macsSkipped, legacy_stats.macsSkipped);
    EXPECT_EQ(stats.mix.hit, legacy_stats.mix.hit);
    EXPECT_EQ(stats.mix.mau, legacy_stats.mix.mau);
}

TEST(Overlap, KnobLiftsFromAcceleratorConfig)
{
    AcceleratorConfig cfg;
    EXPECT_EQ(PipelineConfig::fromConfig(cfg).overlap, OverlapMode::Off);
    cfg.overlapDetection = OverlapMode::On;
    cfg.pipelineThreads = 4;
    EXPECT_EQ(PipelineConfig::fromConfig(cfg).overlap, OverlapMode::On);
}

TEST(Overlap, ModeLeavesEveryEngineResultUnchanged)
{
    // The overlap mode feeds the cycle model only: at 4 threads every
    // engine's output, owner map and statistics are the same for Off,
    // On and Auto.
    Dataset ds = makeImageDataset(2, 2, 3, 16, 21, 0.03f);
    Rng rng(22);
    Tensor cw({4, 3, 3, 3});
    cw.fillNormal(rng);
    ConvSpec spec;
    spec.inChannels = 3;
    spec.outChannels = 4;
    spec.kernelH = spec.kernelW = 3;
    spec.pad = 1;
    Tensor rows = prototypeVectors(300, 20, 24, 0.005f, 23);
    Tensor fw({20, 6});
    fw.fillNormal(rng);

    struct Run
    {
        Tensor conv, fc, attn;
        std::vector<int64_t> owners;
        ReuseStats cs, fs, as;
    };
    const auto run = [&](OverlapMode mode) {
        PipelineConfig pipe;
        pipe.blockRows = 16;
        pipe.threads = 4;
        pipe.overlap = mode;
        DetectionFrontend fe(kSets, kWays, 2, 24, kSeed, pipe);
        Run r;
        r.conv = ConvReuseEngine(fe, 16).forward(ds.inputs, cw, Tensor(),
                                                 spec, r.cs);
        r.fc = FcEngine(fe, 24).forward(rows, fw, r.fs, &r.owners);
        r.attn = AttentionEngine(fe, 20).forward(rows, r.as);
        return r;
    };
    const Run off = run(OverlapMode::Off);
    ASSERT_GT(off.cs.mix.hit, 0);
    ASSERT_GT(off.fs.mix.hit, 0);
    for (const OverlapMode mode : {OverlapMode::On, OverlapMode::Auto}) {
        const Run r = run(mode);
        const char *name = overlapModeName(mode);
        EXPECT_TRUE(r.conv == off.conv) << name;
        EXPECT_TRUE(r.fc == off.fc) << name;
        EXPECT_TRUE(r.attn == off.attn) << name;
        EXPECT_EQ(r.owners, off.owners) << name;
        for (const auto &[a, b] : {std::pair{&r.cs, &off.cs},
                                   std::pair{&r.fs, &off.fs},
                                   std::pair{&r.as, &off.as}}) {
            EXPECT_EQ(a->mix.hit, b->mix.hit) << name;
            EXPECT_EQ(a->mix.mau, b->mix.mau) << name;
            EXPECT_EQ(a->mix.mnu, b->mix.mnu) << name;
            EXPECT_EQ(a->macsSkipped, b->macsSkipped) << name;
        }
    }
}

TEST(Pipeline, ConfigKnobsLiftFromAcceleratorConfig)
{
    AcceleratorConfig cfg;
    cfg.pipelineBlockRows = 128;
    cfg.pipelineShards = 16;
    cfg.pipelineThreads = 0;
    const PipelineConfig pipe = PipelineConfig::fromConfig(cfg);
    EXPECT_EQ(pipe.blockRows, 128);
    EXPECT_EQ(pipe.shards, 16);
    EXPECT_EQ(pipe.threads, 0);

    // A frontend built straight from the accelerator config inherits
    // the MCACHE organization and provisioning.
    DetectionFrontend fe(cfg, 7);
    EXPECT_EQ(fe.entries(), cfg.mcacheEntries());
    EXPECT_EQ(fe.maxBits(), cfg.maxSignatureBits);
    EXPECT_EQ(fe.dataVersions(), cfg.mcacheDataVersions);
    Tensor rows = prototypeVectors(64, 8, 8, 0.01f, 7);
    const HitMix mix = fe.detect(rows, 16).mix();
    EXPECT_TRUE(mix.consistent());
    EXPECT_EQ(mix.vectors, 64);
}

TEST(Pipeline, ResolvedShardsTracksThreadBand)
{
    // Explicit values pass through untouched.
    PipelineConfig pipe;
    pipe.shards = 7;
    EXPECT_EQ(pipe.resolvedShards(), 7);

    // 0 = auto: the tunedPipelineFor band for the resolved thread
    // count — the measured floor of 4 up to serial, scaling with the
    // probing threads, clamped at 16.
    pipe.shards = 0;
    pipe.threads = 1;
    EXPECT_EQ(pipe.resolvedShards(), 4);
    pipe.threads = 8;
    EXPECT_EQ(pipe.resolvedShards(), 8);
    pipe.threads = 64;
    EXPECT_EQ(pipe.resolvedShards(), 16);
}

TEST(Pipeline, AutoShardsFrontendMatchesExplicitShards)
{
    // Detection results are bit-identical across shard counts, so the
    // auto band must change nothing observable.
    Tensor rows = prototypeVectors(96, 10, 9, 0.01f, 11);
    PipelineConfig auto_pipe;
    auto_pipe.shards = 0;
    auto_pipe.threads = 8;
    DetectionFrontend auto_fe(32, 8, 2, kMaxBits, 13, auto_pipe);
    PipelineConfig fixed_pipe;
    fixed_pipe.shards = 8;
    fixed_pipe.threads = 8;
    DetectionFrontend fixed_fe(32, 8, 2, kMaxBits, 13, fixed_pipe);
    const DetectionResult a = auto_fe.detect(rows, 20);
    const DetectionResult b = fixed_fe.detect(rows, 20);
    ASSERT_EQ(a.hitmap.size(), b.hitmap.size());
    for (int64_t i = 0; i < a.hitmap.size(); ++i) {
        EXPECT_EQ(a.hitmap.outcome(i), b.hitmap.outcome(i)) << i;
        EXPECT_EQ(a.hitmap.entryId(i), b.hitmap.entryId(i)) << i;
    }
}

} // namespace
} // namespace mercury
