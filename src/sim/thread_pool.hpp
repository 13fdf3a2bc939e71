/// \file thread_pool.hpp
/// \brief Work-stealing thread pool for tasks that arrive over time.
///
/// The pool runs work whose count is not known up front: serve requests
/// and pipeline passes released by their dependencies. Each task is a
/// whole single-threaded simulation or pass, so tasks are coarse
/// (milliseconds to seconds) and the pool optimizes for simplicity and
/// clean shutdown rather than nanosecond dispatch. Every worker owns a
/// deque; owners pop newest-first (cache-warm), idle workers steal
/// oldest-first from a victim scanned in a fixed cyclic order. Scheduling
/// order is *not* deterministic. A fixed set of N indexed jobs goes
/// through `parallel_map` (parallel.hpp) instead.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "guarded.hpp"

namespace mcps::sim {

/// try_pop's steal path counts the steal under state_mu_ while still
/// holding the victim queue's lock — the one permitted nesting.
MCPS_LOCK_ORDER(ThreadPool::WorkerQueue::mu, ThreadPool::state_mu_);

class ThreadPool {
public:
    using Task = std::function<void()>;

    /// Spawns \p workers threads (at least 1).
    explicit ThreadPool(unsigned workers);

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Joins all workers; pending tasks are completed first.
    ~ThreadPool();

    /// Enqueue a task (round-robin across worker deques).
    void submit(Task task);

    /// Block until every submitted task has finished.
    void wait_idle();

    [[nodiscard]] unsigned worker_count() const noexcept {
        return static_cast<unsigned>(workers_.size());
    }

    /// Number of tasks obtained by stealing (diagnostic; racy read —
    /// a torn uint64 only skews a stat, it gates nothing).
    // mcps-analyze: allow(CONC1): deliberately unlocked diagnostic read
    [[nodiscard]] std::uint64_t steals() const noexcept { return steals_; }

private:
    struct WorkerQueue {
        std::mutex mu;
        std::deque<Task> tasks MCPS_GUARDED_BY(mu);
    };

    void worker_loop(std::size_t id);
    bool try_pop(std::size_t id, Task& out);

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> workers_;

    std::mutex state_mu_;
    std::condition_variable work_cv_;   ///< wakes idle workers
    std::condition_variable idle_cv_;   ///< wakes wait_idle()
    /// submitted, not yet completed
    std::size_t unfinished_ MCPS_GUARDED_BY(state_mu_) = 0;
    /// submitted, not yet started
    std::size_t queued_ MCPS_GUARDED_BY(state_mu_) = 0;
    bool stopping_ MCPS_GUARDED_BY(state_mu_) = false;

    /// round-robin submit cursor
    std::size_t next_queue_ MCPS_GUARDED_BY(state_mu_) = 0;
    std::uint64_t steals_ MCPS_GUARDED_BY(state_mu_) = 0;
};

}  // namespace mcps::sim
