/// \file admission.hpp
/// \brief Bounded QoS admission queue with explicit shedding.
///
/// The server's overload policy, isolated from any socket so it can be
/// unit-tested exhaustively. The queue holds at most `capacity` pending
/// jobs across three priority classes (protocol.hpp's QosClass). Pops
/// serve the highest class first, FIFO within a class — a clinical
/// alarm-path query never waits behind queued batch sweeps.
///
/// When a job arrives at a full queue, admission control decides
/// explicitly rather than blocking or silently dropping:
///
///   - If some *strictly lower* class has a pending job, the newest job
///     of the lowest such class is shed (returned to the caller as the
///     victim, so its client gets a structured "overloaded" rejection)
///     and the arrival is admitted in its place.
///   - Otherwise the arrival itself is rejected.
///
/// This mirrors the paper's network-supervisor framing: under overload
/// the system degrades *visibly* and in priority order, instead of
/// letting safety-relevant traffic queue behind bulk work.
///
/// Workers block in pop() until a job is admitted. close() flips the
/// queue into draining mode: offers are refused with kClosed (the server
/// maps this to a "draining" rejection) while pop() keeps serving what
/// was already admitted, then returns nullopt to every worker.

#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "protocol.hpp"
#include "sim/guarded.hpp"

namespace mcps::serve {

template <typename T>
class AdmissionQueue {
public:
    enum class Outcome : std::uint8_t {
        kAdmitted,  ///< queued; wakes one waiting pop()
        kShed,      ///< queued in place of `victim`; size unchanged
        kRejected,  ///< refused: queue full of equal-or-higher traffic
        kClosed,    ///< refused: draining
    };

    struct Offer {
        Outcome outcome = Outcome::kRejected;
        /// The displaced lower-priority job (kShed only).
        std::optional<T> victim;
        std::optional<QosClass> victim_class;
    };

    explicit AdmissionQueue(std::size_t capacity) : capacity_{capacity} {}

    Offer offer(T item, QosClass c) {
        std::unique_lock<std::mutex> lock{mu_};
        Offer result;
        if (closed_) {
            result.outcome = Outcome::kClosed;
            return result;
        }
        if (size_ < capacity_) {
            classes_[index(c)].push_back(std::move(item));
            ++size_;
            result.outcome = Outcome::kAdmitted;
            lock.unlock();
            ready_.notify_one();
            return result;
        }
        // Full: shed the newest job of the lowest class strictly below
        // the arrival's, if any.
        for (std::size_t v = kQosClassCount; v-- > index(c) + 1;) {
            auto& q = classes_[v];
            if (!q.empty()) {
                result.victim = std::move(q.back());
                result.victim_class = static_cast<QosClass>(v);
                q.pop_back();
                classes_[index(c)].push_back(std::move(item));
                result.outcome = Outcome::kShed;
                return result;
            }
        }
        result.outcome = Outcome::kRejected;
        return result;
    }

    /// Highest-priority pending job, FIFO within a class. Blocks while
    /// the queue is open and empty; nullopt once it is closed and empty.
    std::optional<std::pair<T, QosClass>> pop() {
        std::unique_lock<std::mutex> lock{mu_};
        ready_.wait(lock, [this] { return size_ > 0 || closed_; });
        for (std::size_t c = 0; c < kQosClassCount; ++c) {
            auto& q = classes_[c];
            if (!q.empty()) {
                std::pair<T, QosClass> out{std::move(q.front()),
                                           static_cast<QosClass>(c)};
                q.pop_front();
                --size_;
                return out;
            }
        }
        return std::nullopt;
    }

    /// Stop admitting; already-admitted jobs still drain via pop(), and
    /// every pop() blocked on an empty queue returns nullopt.
    void close() {
        {
            const std::lock_guard<std::mutex> lock{mu_};
            closed_ = true;
        }
        ready_.notify_all();
    }

    [[nodiscard]] bool closed() const {
        const std::lock_guard<std::mutex> lock{mu_};
        return closed_;
    }

    [[nodiscard]] std::size_t size() const {
        const std::lock_guard<std::mutex> lock{mu_};
        return size_;
    }

    [[nodiscard]] std::size_t depth(QosClass c) const {
        const std::lock_guard<std::mutex> lock{mu_};
        return classes_[index(c)].size();
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

private:
    static constexpr std::size_t index(QosClass c) noexcept {
        return static_cast<std::size_t>(c);
    }

    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable ready_;  ///< a job was admitted or closed
    std::array<std::deque<T>, kQosClassCount> classes_ MCPS_GUARDED_BY(mu_);
    std::size_t size_ MCPS_GUARDED_BY(mu_) = 0;  ///< total across classes
    bool closed_ MCPS_GUARDED_BY(mu_) = false;
};

}  // namespace mcps::serve
