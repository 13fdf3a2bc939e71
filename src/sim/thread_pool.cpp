#include "thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mcps::sim {

ThreadPool::ThreadPool(unsigned workers) {
    const unsigned n = std::max(1u, workers);
    queues_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        queues_.push_back(std::make_unique<WorkerQueue>());
    }
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::unique_lock lk{state_mu_};
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : workers_) t.join();
}

void ThreadPool::submit(Task task) {
    if (!task) throw std::invalid_argument("ThreadPool::submit: empty task");
    std::size_t target;
    {
        std::unique_lock lk{state_mu_};
        if (stopping_) {
            throw std::logic_error("ThreadPool::submit: pool is stopping");
        }
        target = next_queue_;
        next_queue_ = (next_queue_ + 1) % queues_.size();
        ++unfinished_;
        ++queued_;
    }
    {
        std::unique_lock qlk{queues_[target]->mu};
        queues_[target]->tasks.push_back(std::move(task));
    }
    work_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t id, Task& out) {
    // Own deque first, newest-first; then steal oldest-first from the
    // others in a fixed cyclic scan starting just past us.
    {
        auto& q = *queues_[id];
        std::unique_lock qlk{q.mu};
        if (!q.tasks.empty()) {
            out = std::move(q.tasks.back());
            q.tasks.pop_back();
            return true;
        }
    }
    const std::size_t n = queues_.size();
    for (std::size_t k = 1; k < n; ++k) {
        auto& victim = *queues_[(id + k) % n];
        std::unique_lock qlk{victim.mu};
        if (!victim.tasks.empty()) {
            out = std::move(victim.tasks.front());
            victim.tasks.pop_front();
            {
                std::unique_lock lk{state_mu_};
                ++steals_;
            }
            return true;
        }
    }
    return false;
}

void ThreadPool::worker_loop(std::size_t id) {
    for (;;) {
        Task task;
        if (try_pop(id, task)) {
            {
                std::unique_lock lk{state_mu_};
                --queued_;
            }
            task();
            std::unique_lock lk{state_mu_};
            if (--unfinished_ == 0) idle_cv_.notify_all();
            continue;
        }
        std::unique_lock lk{state_mu_};
        if (stopping_ && queued_ == 0) return;
        if (queued_ == 0) {
            work_cv_.wait(lk, [this] { return stopping_ || queued_ > 0; });
            if (stopping_ && queued_ == 0) return;
        }
        // queued_ > 0: loop back and race for the task.
    }
}

void ThreadPool::wait_idle() {
    std::unique_lock lk{state_mu_};
    idle_cv_.wait(lk, [this] { return unfinished_ == 0; });
}

}  // namespace mcps::sim
