/**
 * @file
 * Unit tests for the util substrate: deterministic RNG, statistics,
 * table rendering, the work-stealing ThreadPool and the
 * SerialExecutor chains the server's sessions run on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "util/executors.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace mercury {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next64() == b.next64();
    EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestoresStream)
{
    Rng a(7);
    std::vector<uint64_t> first;
    for (int i = 0; i < 16; ++i)
        first.push_back(a.next64());
    a.seed(7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next64(), first[static_cast<size_t>(i)]);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng r(4);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(-2.5, 7.5);
        EXPECT_GE(u, -2.5);
        EXPECT_LT(u, 7.5);
    }
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng r(5);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversAllResidues)
{
    Rng r(6);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.uniformInt(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalMomentsAreStandard)
{
    Rng r(8);
    std::vector<double> xs;
    for (int i = 0; i < 50000; ++i)
        xs.push_back(r.normal());
    EXPECT_NEAR(mean(xs), 0.0, 0.02);
    EXPECT_NEAR(stddev(xs), 1.0, 0.02);
}

TEST(Rng, NormalScalesMeanAndStddev)
{
    Rng r(9);
    std::vector<double> xs;
    for (int i = 0; i < 50000; ++i)
        xs.push_back(r.normal(5.0, 2.0));
    EXPECT_NEAR(mean(xs), 5.0, 0.05);
    EXPECT_NEAR(stddev(xs), 2.0, 0.05);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng r(10);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(11);
    Rng child = a.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next64() == child.next64();
    EXPECT_LT(same, 3);
}

TEST(Rng, FillNormalFillsEveryElement)
{
    Rng r(12);
    std::vector<float> v(64, 0.0f);
    r.fillNormal(v);
    int nonzero = 0;
    for (float x : v)
        nonzero += x != 0.0f;
    EXPECT_GT(nonzero, 60);
}

TEST(Stats, StatAccumulates)
{
    Stat s;
    s += 2.0;
    s++;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 4.0);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, GroupCreatesAndFinds)
{
    StatGroup g("core");
    g.stat("hits") += 3;
    EXPECT_TRUE(g.has("hits"));
    EXPECT_FALSE(g.has("misses"));
    EXPECT_DOUBLE_EQ(g.get("hits").value(), 3.0);
}

TEST(Stats, GroupResetAll)
{
    StatGroup g;
    g.stat("a") += 1;
    g.stat("b") += 2;
    g.resetAll();
    EXPECT_DOUBLE_EQ(g.get("a").value(), 0.0);
    EXPECT_DOUBLE_EQ(g.get("b").value(), 0.0);
}

TEST(Stats, GroupNamesSorted)
{
    StatGroup g;
    g.stat("zeta");
    g.stat("alpha");
    auto names = g.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "zeta");
}

TEST(Stats, GroupDumpContainsValues)
{
    StatGroup g;
    g.stat("cycles") += 42;
    EXPECT_NE(g.dump().find("cycles 42"), std::string::npos);
}

TEST(Stats, GeomeanOfEqualValues)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
}

TEST(Stats, GeomeanKnownValue)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
}

TEST(Stats, MeanAndStddevKnownValues)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(stddev({2.0, 4.0}), 1.0, 1e-12);
}

TEST(Stats, GeomeanDeathOnEmpty)
{
    EXPECT_DEATH(geomean({}), "geomean");
}

TEST(Stats, GeomeanDeathOnNonPositive)
{
    EXPECT_DEATH(geomean({1.0, 0.0}), "positive");
}

TEST(Table, AlignsColumns)
{
    Table t("demo");
    t.header({"model", "speedup"});
    t.row({"VGG13", "1.89"});
    t.row({"AlexNet", "1.50"});
    const std::string s = t.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("VGG13"), std::string::npos);
    EXPECT_NE(s.find("AlexNet"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, CsvRendersRows)
{
    Table t;
    t.header({"a", "b"});
    t.row({"1", "2"});
    EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(1.975, 2), "1.98");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, CountGroupsThousands)
{
    EXPECT_EQ(Table::count(1234567), "1,234,567");
    EXPECT_EQ(Table::count(12), "12");
    EXPECT_EQ(Table::count(0), "0");
}

// ---------------------------------------------------------------------
// Executors (util/executors.hpp): SerialExecutor must run one chain's
// tasks strictly in submission order with no overlap (a session's
// jobs run in order on one chain).
// ---------------------------------------------------------------------

TEST(SerialExecutor, RunsTasksInSubmissionOrderWithoutOverlap)
{
    ThreadPool pool(3);
    SerialExecutor chain(&pool);
    std::vector<int> order;
    std::atomic<int> in_flight{0};
    std::atomic<bool> overlapped{false};
    for (int i = 0; i < 64; ++i) {
        chain.run([&, i] {
            if (in_flight.fetch_add(1) != 0)
                overlapped.store(true);
            order.push_back(i); // safe iff tasks never overlap
            in_flight.fetch_sub(1);
        });
    }
    chain.wait();
    EXPECT_FALSE(overlapped.load());
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);

    // Two executors on one pool do run concurrently with each other;
    // their combined task count still adds up.
    SerialExecutor a(&pool), b(&pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 32; ++i) {
        a.run([&] { ran.fetch_add(1); });
        b.run([&] { ran.fetch_add(1); });
    }
    a.wait();
    b.wait();
    EXPECT_EQ(ran.load(), 64);
}

TEST(SerialExecutor, NullPoolRunsInlineInOrder)
{
    SerialExecutor chain(nullptr);
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        chain.run([&, i] { order.push_back(i); });
    chain.wait(); // no-op: everything already ran inline
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SerialExecutor, ReusableAfterWaitAndDrainsOnDestruction)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    {
        SerialExecutor chain(&pool);
        for (int i = 0; i < 16; ++i)
            chain.run([&] { ran.fetch_add(1); });
        chain.wait();
        EXPECT_EQ(ran.load(), 16);
        // A drained chain accepts more work.
        for (int i = 0; i < 16; ++i)
            chain.run([&] { ran.fetch_add(1); });
        // Destructor drains the outstanding tail.
    }
    EXPECT_EQ(ran.load(), 32);
}

TEST(SerialExecutor, ManyChainsInterleaveButStayInternallyOrdered)
{
    // The conv pass shape: one chain per in-flight filter, every
    // chain receiving every block in stream order. Each chain records
    // the block sequence it saw; all must equal the submission order.
    constexpr int kChains = 4;
    constexpr int kBlocks = 100;
    ThreadPool pool(3);
    std::vector<std::unique_ptr<SerialExecutor>> chains;
    std::vector<std::vector<int>> seen(kChains);
    for (int c = 0; c < kChains; ++c)
        chains.push_back(std::make_unique<SerialExecutor>(&pool));
    for (int b = 0; b < kBlocks; ++b)
        for (int c = 0; c < kChains; ++c)
            chains[static_cast<size_t>(c)]->run(
                [&seen, c, b] { seen[static_cast<size_t>(c)].push_back(b); });
    for (auto &chain : chains)
        chain->wait();
    for (int c = 0; c < kChains; ++c) {
        ASSERT_EQ(seen[static_cast<size_t>(c)].size(),
                  static_cast<size_t>(kBlocks));
        for (int b = 0; b < kBlocks; ++b)
            EXPECT_EQ(seen[static_cast<size_t>(c)][static_cast<size_t>(b)],
                      b);
    }
}

// ---------------------------------------------------------------------
// ThreadPool (util/thread_pool.hpp): the work-stealing substrate's
// scheduler contracts. Stealing may reorder a pool's tasks freely but
// must never break a SerialExecutor chain's submission order; inline
// execution is worker-only and depth-bounded; park/wake must survive
// repeated idle/burst cycles without losing tasks.
// ---------------------------------------------------------------------

TEST(ThreadPool, StealingRedistributesWorkWithoutBreakingChainOrder)
{
    // A spawning worker task keeps submitting noise until another
    // worker runs one of its tasks. While every peer is busy the
    // submits run inline; once a peer parks, a submit lands in the
    // spawner's own deque, which the spawner cannot drain while it
    // still runs — the others can only reach that task by stealing.
    // A SerialExecutor chain runs alongside; the chain contract must
    // hold no matter which worker a stolen pump lands on. The wait
    // for a thief is bounded, and running out of time fails the test.
    constexpr int kRounds = 8;
    std::vector<int> order;
    std::atomic<int> noise_submitted{0};
    std::atomic<int> noise_ran{0};
    std::atomic<int> spawners_done{0};
    std::atomic<bool> timed_out{false};
    // Declared after the state its tasks touch, so it drains first.
    ThreadPool pool(3);
    SerialExecutor chain(&pool);
    int blocks = 0;
    for (int round = 0; round < kRounds; ++round) {
        pool.submit([&] {
            const std::thread::id spawner = std::this_thread::get_id();
            auto stolen = std::make_shared<std::atomic<bool>>(false);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (!stolen->load()) {
                if (std::chrono::steady_clock::now() > deadline) {
                    timed_out.store(true);
                    break;
                }
                noise_submitted.fetch_add(1);
                pool.submit([&noise_ran, spawner, stolen] {
                    if (std::this_thread::get_id() != spawner)
                        stolen->store(true);
                    noise_ran.fetch_add(1);
                });
                std::this_thread::yield();
            }
            spawners_done.fetch_add(1);
        });
        for (int b = 0; b < 16; ++b, ++blocks)
            chain.run([&order, blocks] { order.push_back(blocks); });
        chain.wait();
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while ((spawners_done.load() != round + 1 ||
                noise_ran.load() != noise_submitted.load()) &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        ASSERT_EQ(spawners_done.load(), round + 1);
        ASSERT_EQ(noise_ran.load(), noise_submitted.load())
            << "noise task lost in round " << round;
    }
    EXPECT_FALSE(timed_out.load()) << "no worker stole from the spawner";
    EXPECT_GT(pool.stealCount(), 0); // the sweep actually migrated work
    ASSERT_EQ(order.size(), static_cast<size_t>(blocks));
    for (int b = 0; b < blocks; ++b)
        EXPECT_EQ(order[static_cast<size_t>(b)], b);
}

TEST(ThreadPool, InlineExecutionIsDepthBounded)
{
    // A self-replenishing chain on a 1-worker pool: every nested
    // submit sees zero idle peers, so the worker runs it inline until
    // the per-thread depth budget is spent, then queues. The observed
    // nesting must stay at (outer frame + kMaxInlineDepth) and the
    // whole chain must still complete.
    constexpr int kTasks = 64;
    std::atomic<int> depth{0};
    std::atomic<int> max_depth{0};
    std::atomic<int> remaining{kTasks};
    std::atomic<int> finished{0};
    std::function<void()> task;
    // Declared after the state its tasks touch, so it drains first.
    ThreadPool pool(1);
    task = [&] {
        const int d = depth.fetch_add(1) + 1;
        int seen = max_depth.load();
        while (d > seen && !max_depth.compare_exchange_weak(seen, d)) {
        }
        if (remaining.fetch_sub(1) > 1)
            pool.submit(task);
        depth.fetch_sub(1);
        finished.fetch_add(1);
    };
    pool.submit(task);
    for (int spin = 0; finished.load() != kTasks && spin < 100000; ++spin)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    EXPECT_EQ(finished.load(), kTasks);
    EXPECT_EQ(remaining.load(), 0);
    EXPECT_GT(max_depth.load(), 1); // inlining did engage
    EXPECT_LE(max_depth.load(), 1 + ThreadPool::kMaxInlineDepth);
    EXPECT_GT(pool.inlineRuns(), 0);
}

TEST(ThreadPool, TasksSubmittedFromInsideTasksAllRun)
{
    // A worker that submits from inside a task queues the new task in
    // its own deque or runs it inline; either way a tree of nested
    // submits must run to the last leaf. Fan-out 4 over three levels:
    // 1 + 4 + 16 + 64 tasks.
    constexpr int kFan = 4;
    constexpr int kDepth = 3;
    constexpr int kTotal = 1 + 4 + 16 + 64;
    std::atomic<int> ran{0};
    std::function<void(int)> node;
    // Declared after the state its tasks touch, so it drains first.
    ThreadPool pool(3);
    node = [&](int level) {
        ran.fetch_add(1);
        if (level == kDepth)
            return;
        for (int i = 0; i < kFan; ++i)
            pool.submit([&node, level] { node(level + 1); });
    };
    pool.submit([&node] { node(0); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (ran.load() != kTotal &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    EXPECT_EQ(ran.load(), kTotal);
}

TEST(ThreadPool, ForKnobMaterializesOnePoolPerSlot)
{
    // A knob that resolves to one thread runs inline (no pool); any
    // larger one materializes a pool of threads - 1 workers (callers
    // join every parallelFor) once, and later calls reuse it.
    std::unique_ptr<ThreadPool> slot;
    EXPECT_EQ(ThreadPool::forKnob(1, slot), nullptr);
    EXPECT_EQ(slot, nullptr);
    ThreadPool *pool = ThreadPool::forKnob(3, slot);
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool, slot.get());
    EXPECT_EQ(pool->workers(), 2);
    EXPECT_EQ(ThreadPool::forKnob(3, slot), pool);
    // Explicit knobs are capped so a typo cannot exhaust OS threads;
    // auto follows the host, clamped to [1, 16]. (Only resolved here,
    // no pool is built at the cap.)
    EXPECT_EQ(ThreadPool::resolveThreads(1), 1);
    EXPECT_EQ(ThreadPool::resolveThreads(256), 256);
    EXPECT_EQ(ThreadPool::resolveThreads(100000), 256);
    const int automatic = ThreadPool::resolveThreads(0);
    EXPECT_GE(automatic, 1);
    EXPECT_LE(automatic, 16);
}

TEST(ThreadPool, NonWorkerSubmitIsAsynchronousEvenWhenSaturated)
{
    // The serve-backpressure contract: an outside thread's submit()
    // must return before the task executes even when every worker is
    // busy — SessionHandle's bounded queue and SerialExecutor::run
    // both rely on it. Block the sole worker, submit from the test
    // thread, and verify nothing ran inline here.
    ThreadPool pool(1);
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::atomic<bool> blocked{false};
    pool.submit([&] {
        blocked.store(true);
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return release; });
    });
    while (!blocked.load())
        std::this_thread::yield();
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 0); // queued behind the blocked worker
    EXPECT_EQ(pool.inlineRuns(), 0);
    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    for (int spin = 0; ran.load() != 8 && spin < 20000; ++spin)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ParallelForJoinsItemsNotHelpers)
{
    // parallelFor's join waits for the ITEMS, not for the queued
    // helper drivers: with every worker blocked on a latch, a call
    // from a non-worker thread must still return — the caller runs
    // every item itself. The latch opens only after the call returns;
    // its timeout (a failure) keeps a broken join from hanging.
    constexpr int kWorkers = 3;
    ThreadPool pool(kWorkers);
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::atomic<int> blocked{0};
    std::atomic<bool> timed_out{false};
    for (int w = 0; w < kWorkers; ++w) {
        pool.submit([&] {
            blocked.fetch_add(1);
            std::unique_lock<std::mutex> lock(m);
            if (!cv.wait_for(lock, std::chrono::seconds(10),
                             [&] { return release; }))
                timed_out.store(true);
        });
    }
    while (blocked.load() != kWorkers)
        std::this_thread::yield();

    constexpr int64_t kItems = 64;
    std::vector<int> hits(kItems, 0);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> off_caller{false};
    pool.parallelFor(kItems, [&](int64_t i) {
        if (std::this_thread::get_id() != caller)
            off_caller.store(true);
        ++hits[static_cast<size_t>(i)];
    });
    const bool returned_before_release = !timed_out.load();
    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();

    EXPECT_TRUE(returned_before_release)
        << "parallelFor waited for blocked helpers";
    EXPECT_FALSE(off_caller.load());
    for (int64_t i = 0; i < kItems; ++i)
        EXPECT_EQ(hits[static_cast<size_t>(i)], 1) << i;
    // The late helpers find nothing left; the pool keeps working.
    std::atomic<int> after{0};
    pool.parallelFor(16, [&](int64_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 16);
}

TEST(ThreadPool, ParkWakeSurvivesRepeatedIdleBurstCycles)
{
    // Alternate idle gaps (long enough for workers to park) with
    // bursts of outside submits; every burst must be fully delivered —
    // the Dekker park/submit handshake may never strand a wave on a
    // parked pool.
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    constexpr int kRounds = 12;
    constexpr int kBurst = 48;
    for (int round = 0; round < kRounds; ++round) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        for (int i = 0; i < kBurst; ++i)
            pool.submit([&] { ran.fetch_add(1); });
        const int expected = (round + 1) * kBurst;
        for (int spin = 0; ran.load() < expected && spin < 20000; ++spin)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        ASSERT_EQ(ran.load(), expected) << "burst lost in round " << round;
    }
}

} // namespace
} // namespace mercury
