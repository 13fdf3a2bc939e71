/// \file stats.hpp
/// \brief Streaming statistics accumulators used by experiments and benches.

#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace mcps::sim {

/// Streaming mean/variance/min/max via Welford's online algorithm.
/// Numerically stable; O(1) memory. Value type is double throughout.
class RunningStats {
public:
    void add(double x) noexcept {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        if (x < min_) min_ = x;
        if (x > max_) max_ = x;
        sum_ += x;
    }

    [[nodiscard]] std::size_t count() const noexcept { return n_; }
    [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
    [[nodiscard]] double sum() const noexcept { return sum_; }
    [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
    /// Sample variance (n-1 denominator); 0 for fewer than two samples.
    [[nodiscard]] double variance() const noexcept {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }
    [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
    [[nodiscard]] double min() const noexcept {
        return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
    }
    [[nodiscard]] double max() const noexcept {
        return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
    }

    /// Merge another accumulator (parallel-combine form of Welford).
    void merge(const RunningStats& o) noexcept {
        if (o.n_ == 0) return;
        if (n_ == 0) {
            *this = o;
            return;
        }
        const double delta = o.mean_ - mean_;
        const auto n1 = static_cast<double>(n_);
        const auto n2 = static_cast<double>(o.n_);
        const double nt = n1 + n2;
        m2_ += o.m2_ + delta * delta * n1 * n2 / nt;
        mean_ = (n1 * mean_ + n2 * o.mean_) / nt;
        n_ += o.n_;
        sum_ += o.sum_;
        if (o.min_ < min_) min_ = o.min_;
        if (o.max_ > max_) max_ = o.max_;
    }

private:
    std::size_t n_{0};
    double mean_{0}, m2_{0}, sum_{0};
    double min_{std::numeric_limits<double>::infinity()};
    double max_{-std::numeric_limits<double>::infinity()};
};

/// Retains all samples; supports exact quantiles. Use for experiment
/// result columns (latency p50/p95/p99 etc.), not hot loops.
class SampleSet {
public:
    void add(double x) {
        samples_.push_back(x);
        sorted_ = false;
        stats_.add(x);
    }

    [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
    [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
    [[nodiscard]] double mean() const noexcept { return stats_.mean(); }
    [[nodiscard]] double stddev() const noexcept { return stats_.stddev(); }
    [[nodiscard]] double min() const noexcept { return stats_.min(); }
    [[nodiscard]] double max() const noexcept { return stats_.max(); }

    /// Exact quantile by linear interpolation between order statistics.
    /// \param q in [0, 1]. \throws std::out_of_range on empty set or bad q.
    [[nodiscard]] double quantile(double q) const;
    [[nodiscard]] double median() const { return quantile(0.5); }

    [[nodiscard]] const std::vector<double>& samples() const noexcept {
        return samples_;
    }

private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;
    RunningStats stats_;
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples land in
/// saturating underflow/overflow bins. Histograms with identical binning
/// merge exactly (integer counts), which makes them safe reduction state
/// for parallel runs: merge order never changes the result.
class Histogram {
public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x) noexcept;

    [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
    [[nodiscard]] std::uint64_t bin_count(std::size_t i) const {
        return counts_.at(i);
    }
    [[nodiscard]] double bin_low(std::size_t i) const noexcept {
        return lo_ + width_ * static_cast<double>(i);
    }
    [[nodiscard]] double bin_high(std::size_t i) const noexcept {
        return bin_low(i) + width_;
    }
    [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
    [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

    /// True if \p o shares this histogram's lo/width/bin-count.
    [[nodiscard]] bool same_binning(const Histogram& o) const noexcept {
        return lo_ == o.lo_ && width_ == o.width_ &&
               counts_.size() == o.counts_.size();
    }

    /// Bin-wise merge (exact and associative: counts are integers).
    /// \throws std::invalid_argument if binnings differ.
    void merge(const Histogram& o);

    /// Estimated quantile (\p q in [0,1]) by linear interpolation inside
    /// the covering bin. Underflow mass clamps to lo, overflow to hi —
    /// an estimate, unlike SampleSet::quantile, but O(bins) memory.
    /// \throws std::out_of_range on an empty histogram or bad q.
    [[nodiscard]] double quantile(double q) const;
    /// quantile() with \p p in percent, e.g. percentile(99.0).
    [[nodiscard]] double percentile(double p) const { return quantile(p / 100.0); }

    /// ASCII rendering for bench output (one line per bin).
    [[nodiscard]] std::string to_string(std::size_t max_bar_width = 40) const;

private:
    double lo_, width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_{0}, overflow_{0}, total_{0};
};

}  // namespace mcps::sim
