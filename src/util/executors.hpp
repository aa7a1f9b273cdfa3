/**
 * @file
 * SerialExecutor: a FIFO task chain over ThreadPool — at most one
 * task of the chain runs at a time, in submission order. The server
 * runs each session's jobs on one chain (serve/server.hpp); unit
 * tests live in tests/test_util.cpp.
 *
 * Deadlock rule (inherited from ThreadPool): pool tasks must never
 * block on other pool tasks — SerialExecutor::wait is for non-worker
 * threads only. All submitted closures must be no-throw.
 */

#ifndef MERCURY_UTIL_EXECUTORS_HPP
#define MERCURY_UTIL_EXECUTORS_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include "util/thread_pool.hpp"

namespace mercury {

/**
 * FIFO task chain over a ThreadPool: tasks submitted to one executor
 * run in submission order and never concurrently with each other
 * (tasks of *different* executors do run concurrently).
 *
 * Concurrency contract: run() and wait() are called by one owner
 * thread; the chain itself executes on pool workers (inline with a
 * null pool). wait() must not be called from inside a pool task.
 */
class SerialExecutor
{
  public:
    /** @param pool worker pool, or nullptr to run everything inline */
    explicit SerialExecutor(ThreadPool *pool)
        : pool_(pool)
    {
    }

    /** Destructor drains the chain. */
    ~SerialExecutor() { wait(); }

    SerialExecutor(const SerialExecutor &) = delete;
    SerialExecutor &operator=(const SerialExecutor &) = delete;

    /** Append one task to the chain (inline when the pool is null). */
    void run(std::function<void()> task);

    /** Block until the chain is drained (queue empty, nothing running). */
    void wait();

  private:
    ThreadPool *pool_;
    std::mutex mutex_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    bool active_ = false; ///< a pump task is scheduled or running

    void pump();
};

} // namespace mercury

#endif // MERCURY_UTIL_EXECUTORS_HPP
