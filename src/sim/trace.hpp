/// \file trace.hpp
/// \brief Timestamped signal recording for scenario runs.
///
/// A TraceRecorder collects (time, value) samples for named scalar
/// signals. Experiments query traces after a run to compute safety
/// metrics (time below an SpO2 threshold, detection latencies, ...) and
/// can export CSV for offline plotting. Discrete facts (alarms, state
/// changes, commands) are not samples: they go to the run's
/// obs::EventLog.

#pragma once

#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "time.hpp"

namespace mcps::sim {

/// One scalar sample.
struct TraceSample {
    SimTime time;
    double value;
};

/// A recorded scalar signal: append-only, time-ordered samples.
class Signal {
public:
    explicit Signal(std::string name) : name_{std::move(name)} {}

    /// Append a sample; times must be non-decreasing.
    void record(SimTime t, double value);
    /// Make room for \p n samples, so a recorder that knows its run
    /// length records without regrowing.
    void reserve(std::size_t n) { samples_.reserve(n); }

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] const std::vector<TraceSample>& samples() const noexcept {
        return samples_;
    }
    [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }

    /// Last recorded value, if any.
    [[nodiscard]] std::optional<double> last() const noexcept;

    /// Value at time \p t under zero-order hold (the most recent sample at
    /// or before t); nullopt if t precedes the first sample.
    [[nodiscard]] std::optional<double> value_at(SimTime t) const noexcept;

    /// Total duration within [from, to] during which the (zero-order-held)
    /// signal satisfies \p pred. The signal holds its last value to `to`.
    template <typename Pred>
    [[nodiscard]] SimDuration time_where(SimTime from, SimTime to,
                                         Pred pred) const {
        SimDuration acc = SimDuration::zero();
        if (samples_.empty() || to <= from) return acc;
        for (std::size_t i = 0; i < samples_.size(); ++i) {
            const SimTime seg_start = std::max(samples_[i].time, from);
            const SimTime seg_end =
                i + 1 < samples_.size() ? std::min(samples_[i + 1].time, to) : to;
            if (seg_end <= seg_start) continue;
            if (seg_start >= to) break;
            if (pred(samples_[i].value)) acc += seg_end - seg_start;
        }
        return acc;
    }

    /// Duration where signal < threshold over [from, to].
    [[nodiscard]] SimDuration time_below(SimTime from, SimTime to,
                                         double threshold) const {
        return time_where(from, to, [=](double v) { return v < threshold; });
    }
    /// Duration where signal > threshold over [from, to].
    [[nodiscard]] SimDuration time_above(SimTime from, SimTime to,
                                         double threshold) const {
        return time_where(from, to, [=](double v) { return v > threshold; });
    }

    /// First time at/after \p from where the value satisfies \p pred.
    template <typename Pred>
    [[nodiscard]] std::optional<SimTime> first_time_where(SimTime from,
                                                          Pred pred) const {
        for (const auto& s : samples_) {
            if (s.time >= from && pred(s.value)) return s.time;
        }
        return std::nullopt;
    }

    /// Min over all samples in [from, to]; nullopt if none fall inside.
    [[nodiscard]] std::optional<double> min_in(SimTime from, SimTime to) const;
    /// Max over all samples in [from, to]; nullopt if none fall inside.
    [[nodiscard]] std::optional<double> max_in(SimTime from, SimTime to) const;
    /// Summary statistics over all samples (unweighted by duration).
    [[nodiscard]] RunningStats stats() const;

private:
    std::string name_;
    std::vector<TraceSample> samples_;
};

/// Container of named signals for one scenario run.
class TraceRecorder {
public:
    /// Get-or-create a signal by name. References remain valid for the
    /// recorder's lifetime (node-based map storage), so a caller that
    /// records on a hot path should hold the returned Signal& rather
    /// than build the name and search the map on every sample (which is
    /// what record() below does). Resolve it on the first sample, not
    /// ahead of time: creating a signal adds it to signal_names(),
    /// write_csv() and the trace fingerprint even if it never samples.
    /// A signal this call creates with a positive \p period reserves
    /// room for one sample per period over the horizon (set_horizon), so
    /// a periodic recorder runs without regrowing. The reserve is capped
    /// at 2^18 samples (4 MiB, about 73 h at 1 Hz); past that it grows as
    /// usual.
    Signal& signal(const std::string& name,
                   SimDuration period = SimDuration::zero());

    /// The run length signal(name, period) sizes new signals for; zero
    /// (the default) reserves nothing.
    void set_horizon(SimDuration run) noexcept { horizon_ = run; }

    /// Look up an existing signal; nullptr if never recorded.
    [[nodiscard]] const Signal* find(const std::string& name) const noexcept;

    /// Record a scalar sample (get-or-create shorthand).
    void record(const std::string& name, SimTime t, double value) {
        signal(name).record(t, value);
    }

    [[nodiscard]] std::size_t signal_count() const noexcept {
        return signals_.size();
    }
    [[nodiscard]] std::vector<std::string> signal_names() const;

    /// Write all signals as long-format CSV: time_s,signal,value.
    void write_csv(std::ostream& os) const;

private:
    std::map<std::string, Signal> signals_;
    SimDuration horizon_ = SimDuration::zero();
};

}  // namespace mcps::sim
