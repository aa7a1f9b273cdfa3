/**
 * @file
 * Work-stealing worker pool used by the detection pipeline
 * (src/pipeline), the conv lanes (core/reuse_runtime.hpp) and the
 * server's sessions. The FIFO chain built on it (SerialExecutor)
 * lives in util/executors.hpp.
 *
 * Execution substrate (see docs/ARCHITECTURE.md, "Execution
 * substrate"):
 *
 *  - Each worker owns a fixed-capacity Chase-Lev deque: the owner
 *    pushes and pops at the bottom (LIFO — the freshest task is the
 *    cache-hottest), thieves CAS the top (FIFO — the oldest task is
 *    the coldest and the best candidate to migrate). A worker that
 *    submits from inside a task therefore keeps its continuation
 *    local instead of bouncing it through a shared queue.
 *  - Non-worker threads submit into a mutex-protected injection
 *    queue, which also absorbs deque overflow. Workers scan: own
 *    deque, then injection queue, then a randomized steal sweep of
 *    the other deques.
 *  - A WORKER that submits while every peer is busy (none idle) may
 *    run the task inline, bounded at kMaxInlineDepth nested inline
 *    frames (self-replenishing task chains would otherwise recurse
 *    without bound). Inline execution is work-conserving: on an
 *    oversubscribed host the submitting worker does the work instead
 *    of queueing behind a context switch. Non-worker threads never
 *    inline (except on a 0-worker pool): for them submit() is
 *    contractually asynchronous — bounded job queues (serve
 *    backpressure) and SerialExecutor::run rely on it returning
 *    before the task executes.
 *  - Idle workers spin briefly (rescanning all sources), then park on
 *    a condition variable. Submitters elide the wakeup syscall when
 *    no worker is parked; the park/submit race is closed with a
 *    store-load (Dekker) pattern on seq_cst atomics — either the
 *    submitter observes the parked count, or the parking worker's
 *    final rescan observes the pushed work.
 *
 * The pool is deliberately minimal: submit closures, or run an
 * index-space loop with parallelFor(). The calling thread
 * participates in parallelFor(), so a pool of W workers executes
 * loops with W + 1 concurrent executors.
 *
 * Ordering: tasks of one pool run in no particular order (stealing
 * and inline execution both reorder); anything order-dependent rides
 * a SerialExecutor, whose chain contract is preserved unchanged (one
 * pump in flight per chain, tasks in submission order).
 *
 * Deadlock rule: pool tasks must never block on other pool tasks
 * (SerialExecutor::wait and parallelFor are for non-worker
 * threads). All submitted closures must be no-throw — a
 * failed invariant panics/aborts, it does not unwind.
 */

#ifndef MERCURY_UTIL_THREAD_POOL_HPP
#define MERCURY_UTIL_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mercury {

/** Fixed-size pool of work-stealing workers. */
class ThreadPool
{
  public:
    /**
     * Nested inline-execution frames submit() allows per thread
     * before falling back to queueing (bounds the stack depth of
     * self-replenishing task chains that resubmit from inside their
     * own inline run).
     */
    static constexpr int kMaxInlineDepth = 4;

    /** Spawn `workers` threads (0 is allowed: everything runs inline). */
    explicit ThreadPool(int workers);

    /** Drains all queues and joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int workers() const { return static_cast<int>(threads_.size()); }

    /**
     * Enqueue one task for asynchronous execution. Worker threads
     * push to their own deque (no lock) — or, when no peer is idle,
     * run the task inline (depth-bounded, see kMaxInlineDepth).
     * Other threads always inject: for them submit() returns before
     * the task executes (unless the pool has zero workers).
     */
    void submit(std::function<void()> task);

    /**
     * Run fn(0) .. fn(items - 1) across the pool and the calling
     * thread, returning when every item completed — not when every
     * queued helper has run: if the workers are busy elsewhere, the
     * caller runs all items itself and returns without waiting for
     * them. Indices are dynamically scheduled; fn must not assume any
     * ordering. Safe to call with an empty pool (runs inline).
     */
    void parallelFor(int64_t items, const std::function<void(int64_t)> &fn);

    /**
     * Resolve a thread-count knob: explicit values >= 1 pass through
     * capped at 256 (a typo'd knob must not exhaust OS threads),
     * 0 (auto) becomes the hardware concurrency clamped to [1, 16].
     */
    static int resolveThreads(int requested);

    /**
     * Lazily materialize a pool for a thread knob into `slot` and
     * return it, or nullptr when the resolved count is <= 1 (run
     * inline). The pool gets `threads - 1` workers because callers
     * participate in every parallelFor.
     */
    static ThreadPool *forKnob(int requested,
                               std::unique_ptr<ThreadPool> &slot);

    /** Successful steals so far (telemetry; tests assert > 0). */
    int64_t stealCount() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

    /** Tasks run inline on submitting threads (telemetry). */
    int64_t inlineRuns() const
    {
        return inlineRuns_.load(std::memory_order_relaxed);
    }

  private:
    using Task = std::function<void()>;

    /**
     * Chase-Lev work-stealing deque over a fixed ring of atomic task
     * pointers. Owner-only push()/pop() at the bottom; any thread may
     * steal() at the top. Fixed capacity: a full deque rejects the
     * push and the pool overflows into the injection queue, which
     * sidesteps the growth/retirement machinery of the unbounded
     * variant. seq_cst atomics throughout — the fence-based formula
     * tion is invisible to TSan, and these operations are nowhere
     * near the pool's hot-path cost.
     */
    struct Deque
    {
        static constexpr int64_t kCapacity = 4096; // power of two
        static constexpr int64_t kMask = kCapacity - 1;

        std::atomic<int64_t> top{0};
        std::atomic<int64_t> bottom{0};
        std::unique_ptr<std::atomic<Task *>[]> ring{
            new std::atomic<Task *>[kCapacity]};

        /** Owner push; false when full (caller overflows elsewhere). */
        bool push(Task *t);
        /** Owner pop, LIFO end; null when empty. */
        Task *pop();
        /** Thief pop, FIFO end; null when empty or lost the race. */
        Task *steal();
        /** Approximate occupancy (park/wake rescans). */
        bool looksNonEmpty() const;
    };

    struct Worker
    {
        Deque deque;
        uint64_t rngState = 0; ///< steal-victim randomization
    };

    std::vector<std::thread> threads_;
    std::vector<std::unique_ptr<Worker>> workers_;

    // Injection queue: non-worker submits and deque overflow.
    std::deque<Task *> global_;
    std::mutex globalMutex_;
    std::atomic<int64_t> globalSize_{0};

    // Park/wake.
    std::mutex parkMutex_;
    std::condition_variable ready_;
    std::atomic<int> idleWorkers_{0};
    std::atomic<bool> stopping_{false};

    std::atomic<int64_t> steals_{0};
    std::atomic<int64_t> inlineRuns_{0};

    void workerLoop(int index);
    /** Own deque -> injection queue -> randomized steal sweep. */
    Task *findWork(int self);
    Task *popGlobal();
    /** Queue one task (no inline): own deque or injection queue. */
    void enqueue(Task *t);
    /** Dekker rescan: any visible queued work? (seq_cst loads) */
    bool hasQueuedWork() const;
    /** Wake one parked worker. */
    void wake();
    /** Run a task inline, tracking the per-thread inline depth. */
    void runInline(Task &&task);
};

} // namespace mercury

#endif // MERCURY_UTIL_THREAD_POOL_HPP
