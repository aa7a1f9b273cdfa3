#include "util/thread_pool.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/logging.hpp"

namespace mercury {

namespace {

/**
 * Worker identity of the current thread: the pool it belongs to and
 * its index there ({nullptr, -1} on non-worker threads). Lets
 * submit() route to the caller's own deque without a lookup.
 */
struct WorkerTls
{
    ThreadPool *pool = nullptr;
    int index = -1;
};

thread_local WorkerTls t_worker;

/** Nested inline-execution frames of the current thread. */
thread_local int t_inlineDepth = 0;

/** xorshift64* — only steal-victim randomization rides on this. */
uint64_t
nextRand(uint64_t &state)
{
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1DULL;
}

} // namespace

// ---------------------------------------------------------------------------
// Chase-Lev deque
// ---------------------------------------------------------------------------

bool
ThreadPool::Deque::push(Task *t)
{
    const int64_t b = bottom.load(std::memory_order_relaxed);
    const int64_t tp = top.load(std::memory_order_seq_cst);
    if (b - tp >= kCapacity)
        return false; // full — caller overflows to the injection queue
    ring[b & kMask].store(t, std::memory_order_relaxed);
    // seq_cst publish pairs with the seq_cst loads in steal() and in
    // the Dekker rescan of hasQueuedWork().
    bottom.store(b + 1, std::memory_order_seq_cst);
    return true;
}

ThreadPool::Task *
ThreadPool::Deque::pop()
{
    const int64_t b = bottom.load(std::memory_order_relaxed) - 1;
    bottom.store(b, std::memory_order_seq_cst);
    int64_t tp = top.load(std::memory_order_seq_cst);
    if (tp > b) {
        bottom.store(b + 1, std::memory_order_seq_cst);
        return nullptr; // empty
    }
    Task *t = ring[b & kMask].load(std::memory_order_relaxed);
    if (tp == b) {
        // Last element: race the thieves for it.
        if (!top.compare_exchange_strong(tp, tp + 1,
                                         std::memory_order_seq_cst,
                                         std::memory_order_seq_cst))
            t = nullptr; // a thief won
        bottom.store(b + 1, std::memory_order_seq_cst);
    }
    return t;
}

ThreadPool::Task *
ThreadPool::Deque::steal()
{
    int64_t tp = top.load(std::memory_order_seq_cst);
    const int64_t b = bottom.load(std::memory_order_seq_cst);
    if (tp >= b)
        return nullptr;
    Task *t = ring[tp & kMask].load(std::memory_order_relaxed);
    if (!top.compare_exchange_strong(tp, tp + 1, std::memory_order_seq_cst,
                                     std::memory_order_seq_cst))
        return nullptr; // lost to the owner or another thief
    return t;
}

bool
ThreadPool::Deque::looksNonEmpty() const
{
    return bottom.load(std::memory_order_seq_cst) >
           top.load(std::memory_order_seq_cst);
}

// ---------------------------------------------------------------------------
// Pool lifecycle
// ---------------------------------------------------------------------------

ThreadPool::ThreadPool(int workers)
{
    if (workers < 0)
        panic("ThreadPool worker count must be non-negative, got ",
              workers);
    workers_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i) {
        workers_.push_back(std::make_unique<Worker>());
        workers_.back()->rngState =
            0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(i + 1) + 1;
    }
    threads_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(parkMutex_);
        stopping_.store(true, std::memory_order_seq_cst);
    }
    ready_.notify_all();
    for (auto &t : threads_)
        t.join();
    // Workers drain every queue before exiting; anything left here
    // would mean the exit condition is broken.
    if (globalSize_.load(std::memory_order_relaxed) != 0)
        panic("ThreadPool destroyed with an undrained injection queue");
}

// ---------------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------------

void
ThreadPool::runInline(Task &&task)
{
    inlineRuns_.fetch_add(1, std::memory_order_relaxed);
    ++t_inlineDepth;
    task();
    --t_inlineDepth;
}

void
ThreadPool::enqueue(Task *t)
{
    const WorkerTls &w = t_worker;
    if (w.pool == this && workers_[static_cast<size_t>(w.index)]
                              ->deque.push(t)) {
        // Landed in the caller's own deque lock-free. Dekker: the
        // push above is seq_cst; a worker parking concurrently either
        // sees it in its final rescan, or incremented idleWorkers_
        // first and is seen here.
        if (idleWorkers_.load(std::memory_order_seq_cst) > 0)
            wake();
        return;
    }
    // Non-worker thread, or the owner deque is full: inject.
    {
        std::lock_guard<std::mutex> lock(globalMutex_);
        global_.push_back(t);
    }
    globalSize_.fetch_add(1, std::memory_order_seq_cst);
    if (idleWorkers_.load(std::memory_order_seq_cst) > 0)
        wake();
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (threads_.empty()) {
        // Degenerate pool: everything inline, unbounded (nothing
        // self-replenishes on a poolless path).
        task();
        return;
    }
    // Worker submitting while every peer is busy, with inline budget
    // left: run on this thread instead of queueing behind a context
    // switch. Only workers may inline — for outside threads submit()
    // is contractually asynchronous (SessionHandle::submit's bounded
    // queue and SerialExecutor::run both rely on returning before the
    // task runs).
    if (t_worker.pool == this &&
        idleWorkers_.load(std::memory_order_seq_cst) == 0 &&
        t_inlineDepth < kMaxInlineDepth) {
        runInline(std::move(task));
        return;
    }
    enqueue(new Task(std::move(task)));
}

// ---------------------------------------------------------------------------
// Work discovery
// ---------------------------------------------------------------------------

ThreadPool::Task *
ThreadPool::popGlobal()
{
    if (globalSize_.load(std::memory_order_seq_cst) <= 0)
        return nullptr;
    std::lock_guard<std::mutex> lock(globalMutex_);
    if (global_.empty())
        return nullptr;
    Task *t = global_.front();
    global_.pop_front();
    globalSize_.fetch_sub(1, std::memory_order_seq_cst);
    return t;
}

ThreadPool::Task *
ThreadPool::findWork(int self)
{
    if (self >= 0) {
        if (Task *t = workers_[static_cast<size_t>(self)]->deque.pop())
            return t;
    }
    if (Task *t = popGlobal())
        return t;
    // Randomized steal sweep over the other deques.
    const int n = static_cast<int>(workers_.size());
    if (n <= (self >= 0 ? 1 : 0))
        return nullptr;
    uint64_t transientState =
        0x853C49E6748FEA9BULL + static_cast<uint64_t>(self + 7);
    uint64_t &state = self >= 0
                          ? workers_[static_cast<size_t>(self)]->rngState
                          : transientState;
    const int start = static_cast<int>(nextRand(state) % n);
    for (int k = 0; k < n; ++k) {
        int victim = start + k;
        if (victim >= n)
            victim -= n;
        if (victim == self)
            continue;
        if (Task *t = workers_[static_cast<size_t>(victim)]->deque.steal()) {
            steals_.fetch_add(1, std::memory_order_relaxed);
            return t;
        }
    }
    return nullptr;
}

bool
ThreadPool::hasQueuedWork() const
{
    if (globalSize_.load(std::memory_order_seq_cst) > 0)
        return true;
    for (const auto &w : workers_)
        if (w->deque.looksNonEmpty())
            return true;
    return false;
}

void
ThreadPool::wake()
{
    // Empty critical section: a worker between its idle increment and
    // its wait() holds parkMutex_, so acquiring it here means the
    // worker is either pre-recheck (and will see the work) or already
    // waiting (and will get the notify).
    { std::lock_guard<std::mutex> lock(parkMutex_); }
    ready_.notify_one();
}

void
ThreadPool::workerLoop(int index)
{
    t_worker.pool = this;
    t_worker.index = index;
    for (;;) {
        Task *t = findWork(index);
        // Spin briefly before parking: a yield beats a futex wait
        // when the producer is one context switch away.
        for (int spin = 0; spin < 2 && t == nullptr; ++spin) {
            std::this_thread::yield();
            t = findWork(index);
        }
        if (t == nullptr) {
            if (stopping_.load(std::memory_order_seq_cst)) {
                // Stopping and a full sweep came up dry. Tasks still
                // running on other workers only push to their own
                // deques, which those workers drain before exiting —
                // nothing can land here anymore.
                return;
            }
            std::unique_lock<std::mutex> lock(parkMutex_);
            idleWorkers_.fetch_add(1, std::memory_order_seq_cst);
            // Dekker recheck: a submitter that missed our idle
            // increment published its push before this rescan.
            if (!stopping_.load(std::memory_order_seq_cst) &&
                !hasQueuedWork())
                ready_.wait(lock);
            idleWorkers_.fetch_sub(1, std::memory_order_seq_cst);
            continue;
        }
        (*t)();
        delete t;
    }
}

// ---------------------------------------------------------------------------
// parallelFor
// ---------------------------------------------------------------------------

namespace {

/** Shared state of one parallelFor call. */
struct ForJob
{
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    int64_t items = 0;
    const std::function<void(int64_t)> *fn = nullptr;
    std::mutex doneMutex;
    std::condition_variable doneCv;

    /**
     * Claim and run items until none are left. The join counts
     * completed ITEMS, not drivers: only the driver that finishes the
     * last item signals, and a helper that starts after every item was
     * claimed returns without touching the join (or `fn`, which may
     * be gone by then — the caller only waits for its items).
     */
    void drive()
    {
        int64_t i;
        while ((i = next.fetch_add(1, std::memory_order_relaxed)) < items) {
            (*fn)(i);
            if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == items) {
                std::lock_guard<std::mutex> lock(doneMutex);
                doneCv.notify_all();
            }
        }
    }
};

} // namespace

void
ThreadPool::parallelFor(int64_t items,
                        const std::function<void(int64_t)> &fn)
{
    if (items <= 0)
        return;
    if (threads_.empty() || items == 1) {
        for (int64_t i = 0; i < items; ++i)
            fn(i);
        return;
    }

    auto job = std::make_shared<ForJob>();
    job->items = items;
    job->fn = &fn;
    // One helper per other item at most (the caller takes one itself),
    // capped at the worker count. Helpers are queued, never run
    // inline: the caller drives the loop itself below, so inlining one
    // here would serialize it. A helper that wakes late finds nothing
    // left and exits; the caller never waits for it.
    const int64_t helpers = std::min<int64_t>(
        static_cast<int64_t>(threads_.size()), items - 1);
    for (int64_t k = 0; k < helpers; ++k)
        enqueue(new Task([job] { job->drive(); }));

    // The caller is an executor too: no thread idles during a loop.
    job->drive();

    if (job->done.load(std::memory_order_acquire) == items)
        return;
    std::unique_lock<std::mutex> lock(job->doneMutex);
    job->doneCv.wait(lock, [&job, items] {
        return job->done.load(std::memory_order_acquire) == items;
    });
}

// ---------------------------------------------------------------------------
// Knob resolution
// ---------------------------------------------------------------------------

int
ThreadPool::resolveThreads(int requested)
{
    if (requested < 0)
        panic("thread count must be >= 0 (0 = auto), got ", requested);
    if (requested >= 1)
        return std::min(requested, 256);
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<int>(static_cast<int>(hw), 1, 16);
}

ThreadPool *
ThreadPool::forKnob(int requested, std::unique_ptr<ThreadPool> &slot)
{
    const int threads = resolveThreads(requested);
    if (threads <= 1)
        return nullptr;
    if (!slot)
        slot = std::make_unique<ThreadPool>(threads - 1);
    return slot.get();
}

} // namespace mercury
