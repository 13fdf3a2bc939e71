/// \file harness.hpp
/// \brief Shared machinery of the benchmark: options, the host gauge that
/// normalizes times for host contention, the closed-loop cycle driver,
/// quantiles and the report.
///
/// Every time the benchmark reports is measured between two runs of the
/// reference slice (ref_slice.hpp). The slice's time divided by a fixed
/// nominal time is the host factor of that window; a time divided by its
/// window's factor is the host-normalized time. A rate is multiplied by
/// it. The raw value is always reported beside the normalized one.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".bench_out";  ///< span files land here
    std::string rev = "unknown";         ///< source revision (host block)
};

class SpanRecorder;

/// Runs the reference slice and turns its times into host factors.
class HostGauge {
public:
    /// Time one slice (median of three sub-runs), in ms; also recorded.
    double sample();
    /// factor = slice ms / nominal ms. A slow host phase gives > 1.
    [[nodiscard]] static double factor_of(double slice_ms);
    /// Median factor over every slice this gauge ran.
    [[nodiscard]] double median_factor() const;
    [[nodiscard]] std::size_t samples() const noexcept {
        return slices_ms_.size();
    }

private:
    std::vector<double> slices_ms_;
};

/// One operation's outcome, as the workload reports it to the driver.
struct OpResult {
    bool ok = true;           ///< passed every correctness check
    double patient_s = 0.0;   ///< simulated patient-seconds it produced
    std::string error;        ///< first failure message when !ok
};

/// Per-operation samples of one measurement.
struct Samples {
    std::vector<double> raw_ms;   ///< wall latency
    std::vector<double> norm_ms;  ///< latency / window host factor
    std::vector<int> kind;        ///< op class, for per-class summaries
    std::vector<char> traced;     ///< op ran with spans on
    std::vector<char> ok;         ///< op passed its checks
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double patient_s = 0.0;       ///< over correct ops
    std::string first_error;

    void add(double raw, double norm, int k, bool tr, const OpResult& r);
};

/// Closed loop: slice, ops for kCycleS, slice, ops, ... until `seconds`
/// have passed. Each op's latency is normalized by the mean factor of the
/// two slices bracketing its cycle. With \p spans set, every other cycle
/// runs traced (spans on), so one run yields both traced and untraced
/// samples.
using OpFn = std::function<OpResult(std::uint64_t index, SpanRecorder* spans)>;
using KindFn = std::function<int(std::uint64_t index)>;

Samples run_closed_loop(HostGauge& gauge, double seconds, const OpFn& op,
                        const KindFn& kind, SpanRecorder* spans);

/// Nearest-rank quantile of an unsorted sample (q in [0,1]).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// The highest of p90/p99/p99.9 that has at least ten samples beyond it
/// (p50 when there are fewer than 100 samples).
struct Tail {
    double pct = 50.0;
    double value = 0.0;
    std::uint64_t beyond = 0;
};
[[nodiscard]] Tail tail_of(const std::vector<double>& v);

/// Busy time of a closed loop, robust to short slow host phases: each op
/// counted at the median time of its class, in seconds.
[[nodiscard]] double median_busy_s(const Samples& s, bool normalized);

/// Mean over op classes of (traced median / untraced median) - 1.
[[nodiscard]] double trace_overhead(const Samples& s);

/// What a run reports: named metrics with units, plus raw twins and
/// free-form notes for the human-readable block.
class Report {
public:
    void metric(const std::string& name, double value, const std::string& unit,
                double raw = -1.0);
    void note(const std::string& key, const std::string& value);
    void count(std::uint64_t attempted, std::uint64_t failed);
    void fail(const std::string& why);

    [[nodiscard]] bool correct() const noexcept { return errors_.empty(); }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

    /// Human-readable table, then the one-line JSON result (last line).
    void print(const std::vector<std::string>& keep) const;

private:
    struct Entry {
        double value;
        std::string unit;
        double raw;
    };
    std::map<std::string, Entry> metrics_;
    std::vector<std::pair<std::string, std::string>> notes_;
    std::vector<std::string> errors_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// Process peak resident set, MiB.
[[nodiscard]] double peak_rss_mb();

/// Times \p setup \p reps times, each bracketed by slices; returns the
/// median normalized seconds and fills \p raw_s with the raw median.
/// \p between (untimed) runs after every repetition but the last.
double time_setup(HostGauge& gauge, int reps, const std::function<void()>& setup,
                  double& raw_s, const std::function<void()>& between = {});

/// What the end-to-end rates are taken over.
struct Basis {
    double limit_ms = 0.0;      ///< goodput latency limit (normalized)
    double seconds_norm = 0.0;  ///< rate denominator
    double seconds_raw = 0.0;   ///< rate denominator, wall clock (raw twin)
    double setup_norm_s = 0.0;
    double setup_raw_s = 0.0;
};

/// Fills every end-to-end metric from one measurement.
void report_end_to_end(Report& rep, const Samples& s, const Basis& b);

}  // namespace perfbench
