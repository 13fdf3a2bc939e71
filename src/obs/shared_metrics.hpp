/// \file shared_metrics.hpp
/// \brief SharedMetrics: a mutex-guarded MetricsRegistry facade for
/// multi-threaded producers.
///
/// MetricsRegistry is deliberately single-threaded (the sim kernel and
/// the ward engine's per-shard registries never share one across
/// threads). Long-running services — the `mcps serve` daemon's request
/// readers, admission queue and worker pool — need many threads
/// incrementing the same counters, so this facade serializes every
/// mutation behind one mutex and hands out *copies* (snapshot()) rather
/// than references: a reference into the registry would be a data race
/// waiting to happen the moment the caller reads it unlocked.
///
/// The contention budget is deliberate: serve counters are bumped a
/// handful of times per request, and a request is a whole scenario run
/// (milliseconds+), so one uncontended mutex is invisible next to the
/// work it accounts for. Don't use this inside the sim kernel's hot
/// loop.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "metrics.hpp"
#include "sim/guarded.hpp"

namespace mcps::obs {

class SharedMetrics {
public:
    /// Counter increment (creates the counter on first use).
    void add(const std::string& name, std::uint64_t n = 1);
    /// Gauge set (creates on first use).
    void set_gauge(const std::string& name, double v);
    /// Histogram sample; binning parameters are used on creation only.
    /// \throws std::invalid_argument on a binning mismatch with an
    /// existing histogram of the same name (as MetricsRegistry does).
    void observe(const std::string& name, double lo, double hi,
                 std::size_t bins, double x);

    /// Current value of a counter; 0 when it does not exist (a counter
    /// that never fired and one never created are indistinguishable by
    /// design — exporters skip both the same way).
    [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
    /// Current value of a gauge; 0.0 when absent.
    [[nodiscard]] double gauge_value(const std::string& name) const;

    /// A point-in-time copy of the whole registry, safe to iterate,
    /// merge or export without holding any lock.
    [[nodiscard]] MetricsRegistry snapshot() const;

private:
    mutable std::mutex mu_;
    MetricsRegistry reg_ MCPS_GUARDED_BY(mu_);
};

}  // namespace mcps::obs
