#include "trend.hpp"

#include <cmath>
#include <stdexcept>

namespace mcps::core {

using mcps::sim::SimDuration;
using mcps::sim::SimTime;

TrendEstimator::TrendEstimator(SimDuration window) : window_{window} {
    if (window <= SimDuration::zero()) {
        throw std::invalid_argument("TrendEstimator: window must be positive");
    }
}

void TrendEstimator::add(SimTime t, double value) {
    if (!samples_.empty() && t < samples_.back().first) {
        throw std::invalid_argument("TrendEstimator: time going backwards");
    }
    samples_.emplace_back(t, value);
    const SimTime cutoff = t - window_;
    while (!samples_.empty() && samples_.front().first < cutoff) {
        samples_.pop_front();
    }
}

std::optional<double> TrendEstimator::latest() const {
    if (samples_.empty()) return std::nullopt;
    return samples_.back().second;
}

std::optional<double> TrendEstimator::slope_per_min() const {
    if (samples_.size() < 3) return std::nullopt;
    // Ordinary least squares on (minutes-since-first, value).
    const SimTime t0 = samples_.front().first;
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    const auto n = static_cast<double>(samples_.size());
    for (const auto& [t, v] : samples_) {
        const double x = (t - t0).to_minutes();
        sx += x;
        sy += v;
        sxx += x * x;
        sxy += x * v;
    }
    const double denom = n * sxx - sx * sx;
    if (denom < 1e-12) return std::nullopt;  // all samples at one instant
    return (n * sxy - sx * sy) / denom;
}

std::optional<SimDuration> TrendEstimator::time_to_cross(
    double threshold) const {
    const auto slope = slope_per_min();
    const auto value = latest();
    if (!slope || !value) return std::nullopt;
    const double gap = threshold - *value;
    // Already crossed, or heading away / flat: not a prediction.
    if (gap == 0.0) return std::nullopt;
    if (*slope == 0.0) return std::nullopt;
    const double minutes = gap / *slope;
    if (minutes <= 0.0) return std::nullopt;
    return SimDuration::from_seconds(minutes * 60.0);
}

EarlyWarning::EarlyWarning(devices::DeviceContext ctx, std::string name,
                           EarlyWarningConfig cfg)
    : ctx_{ctx}, name_{std::move(name)}, cfg_{std::move(cfg)} {
    if (cfg_.check_period <= SimDuration::zero() ||
        cfg_.trend_window <= SimDuration::zero() ||
        cfg_.horizon <= SimDuration::zero()) {
        throw std::invalid_argument("EarlyWarningConfig: non-positive duration");
    }
}

void EarlyWarning::start() {
    if (running_) return;
    running_ = true;
    sub_ = ctx_.bus.subscribe(name_, "vitals/" + cfg_.bed + "/*",
                              [this](const mcps::net::Message& m) {
                                  on_vital(m);
                              });
    check_handle_ =
        ctx_.sim.schedule_periodic(cfg_.check_period, [this] { evaluate(); });
}

void EarlyWarning::stop() {
    if (!running_) return;
    running_ = false;
    check_handle_.cancel();
    ctx_.bus.unsubscribe(sub_);
}

const TrendEstimator* EarlyWarning::trend(const std::string& metric) const {
    const auto it = trends_.find(metric);
    return it == trends_.end() ? nullptr : &it->second;
}

void EarlyWarning::on_vital(const mcps::net::Message& m) {
    const auto* v = mcps::net::payload_as<mcps::net::VitalSignPayload>(m);
    if (!v || !v->valid) return;  // quality-gated: flagged samples skipped
    auto it = trends_.find(v->metric);
    if (it == trends_.end()) {
        it = trends_.emplace(v->metric, TrendEstimator{cfg_.trend_window})
                 .first;
    }
    it->second.add(ctx_.sim.now(), v->value);
}

void EarlyWarning::evaluate() {
    const SimTime now = ctx_.sim.now();
    for (const auto& rule : cfg_.rules) {
        const auto it = trends_.find(rule.metric);
        if (it == trends_.end()) continue;
        const auto& trend = it->second;
        const auto slope = trend.slope_per_min();
        const auto value = trend.latest();
        if (!slope || !value) continue;
        if (std::abs(*slope) < cfg_.min_slope_per_min) continue;
        // Direction gate: a falling rule needs a falling trend with the
        // value still above the threshold (and vice versa).
        if (rule.falling && (*slope >= 0.0 || *value <= rule.threshold)) {
            continue;
        }
        if (!rule.falling && (*slope <= 0.0 || *value >= rule.threshold)) {
            continue;
        }
        const auto cross = trend.time_to_cross(rule.threshold);
        if (!cross || *cross > cfg_.horizon) continue;

        if (const auto lf = last_fired_.find(rule.metric);
            lf != last_fired_.end() && now - lf->second < cfg_.rearm) {
            continue;
        }
        last_fired_[rule.metric] = now;
        alerts_.push_back(PredictiveAlert{now, rule.metric, *value, *slope,
                                          cross->to_seconds()});
        ctx_.emit(mcps::obs::EventKind::kAlarm, name_,
                  "predict/" + rule.metric, cross->to_seconds());
        ctx_.bus.publish(
            name_, "predict/" + name_,
            mcps::net::StatusPayload{
                "predictive",
                rule.metric + " crosses " + std::to_string(rule.threshold) +
                    " in ~" + std::to_string(cross->to_seconds()) + "s"});
    }
}

}  // namespace mcps::core
