#include "smart_alarm.hpp"

#include <algorithm>

namespace mcps::core {

using mcps::sim::SimTime;

std::string_view to_string(AlarmSeverity s) noexcept {
    switch (s) {
        case AlarmSeverity::kAdvisory: return "advisory";
        case AlarmSeverity::kWarning: return "warning";
        case AlarmSeverity::kCritical: return "critical";
    }
    return "unknown";
}

SmartAlarm::SmartAlarm(devices::DeviceContext ctx, std::string name,
                       SmartAlarmConfig cfg)
    : ctx_{ctx}, name_{std::move(name)}, cfg_{std::move(cfg)} {
    last_tech_alert_.fill(SimTime::never());
    if (cfg_.check_period <= mcps::sim::SimDuration::zero()) {
        throw std::invalid_argument("SmartAlarmConfig: check period <= 0");
    }
    if (cfg_.critical_threshold < cfg_.warning_threshold) {
        throw std::invalid_argument(
            "SmartAlarmConfig: critical threshold below warning threshold");
    }
}

void SmartAlarm::start() {
    if (running_) return;
    running_ = true;
    sub_ = ctx_.bus.subscribe(name_, "vitals/" + cfg_.bed + "/*",
                              [this](const mcps::net::Message& m) {
                                  on_vital(m);
                              });
    check_handle_ =
        ctx_.sim.schedule_periodic(cfg_.check_period, [this] { evaluate(); });
}

void SmartAlarm::stop() {
    if (!running_) return;
    running_ = false;
    check_handle_.cancel();
    ctx_.bus.unsubscribe(sub_);
}

void SmartAlarm::on_vital(const mcps::net::Message& m) {
    const auto* v = mcps::net::payload_as<mcps::net::VitalSignPayload>(m);
    if (!v) return;
    if (const auto metric = vital_metric_from(v->metric)) {
        vitals_.set(*metric, VitalReading{v->value, v->valid, ctx_.sim.now()});
    }
}

bool SmartAlarm::fresh(const VitalReading& r) const {
    return r.fresh(ctx_.sim.now(), cfg_.staleness_limit);
}

SmartAlarm::Contribution SmartAlarm::contribution(VitalMetric metric) const {
    Contribution c;
    const VitalReading& r = vitals_[metric];
    if (!fresh(r)) return c;
    const double v = r.value;
    c.degraded = !r.valid;

    switch (metric) {
        case VitalMetric::kSpo2:
            c.points = cfg_.w_spo2 * std::max(0.0, cfg_.spo2_norm - v);
            break;
        case VitalMetric::kRespRate:
            c.points = cfg_.w_rr * std::max(0.0, cfg_.rr_norm - v);
            break;
        case VitalMetric::kEtco2:
            c.points =
                cfg_.w_etco2_low * std::max(0.0, cfg_.etco2_low_norm - v) +
                cfg_.w_etco2_high * std::max(0.0, v - cfg_.etco2_high_norm);
            break;
        case VitalMetric::kPulseRate:
            c.points = cfg_.w_pulse * (std::max(0.0, cfg_.pulse_low - v) +
                                       std::max(0.0, v - cfg_.pulse_high));
            break;
    }
    c.abnormal = c.points > 0.5;
    if (c.degraded) c.points *= cfg_.invalid_factor;
    return c;
}

void SmartAlarm::evaluate() {
    const SimTime now = ctx_.sim.now();

    // Technical alerts for silent channels (distinct from patient alarms;
    // rate-limited per channel).
    for (const VitalMetric metric : kVitalMetrics) {
        const VitalReading& r = vitals_[metric];
        const bool silent = r.seen() && !fresh(r);  // seen once, now quiet
        if (!silent) continue;
        SimTime& last = last_tech_alert_[static_cast<std::size_t>(metric)];
        if (!last.is_never() && now - last < cfg_.rearm) continue;
        last = now;
        const std::string name{to_string(metric)};
        tech_alerts_.push_back(TechnicalAlert{now, name});
        ctx_.trace.mark(now, "smart_alarm/" + name_ + "/tech/" + name);
    }

    // Fused risk score with corroboration weighting.
    Contribution contribs[kVitalMetricCount];
    int abnormal_count = 0;
    for (std::size_t i = 0; i < kVitalMetricCount; ++i) {
        contribs[i] = contribution(kVitalMetrics[i]);
        if (contribs[i].abnormal) ++abnormal_count;
    }
    double score = 0.0;
    double best = -1.0;
    for (std::size_t i = 0; i < kVitalMetricCount; ++i) {
        double pts = contribs[i].points;
        if (contribs[i].abnormal && abnormal_count < 2) {
            pts *= cfg_.uncorroborated_factor;  // lone anomaly: discounted
        }
        score += pts;
        if (pts > best) {
            best = pts;
            dominant_ = kVitalMetrics[i];
        }
    }
    score_ = score;
    if (score_signal_ == nullptr) {
        score_signal_ = &ctx_.trace.signal("smart_alarm/" + name_ + "/score");
    }
    score_signal_->record(now, score);

    // Persistence-filtered threshold crossing, critical first.
    auto try_fire = [&](AlarmSeverity sev, double threshold,
                        SimTime& above_since) -> bool {
        if (score >= threshold) {
            if (above_since.is_never()) above_since = now;
            if (now - above_since >= cfg_.persistence) {
                const std::string key = std::string{to_string(sev)};
                auto lf = last_fired_.find(key);
                if (lf == last_fired_.end() || now - lf->second >= cfg_.rearm) {
                    last_fired_[key] = now;
                    const std::string dominant{to_string(dominant_)};
                    alarms_.push_back(AlarmEvent{now, sev, score, dominant});
                    ctx_.trace.mark(now, "smart_alarm/" + name_ + "/" + key);
                    ctx_.bus.publish(name_, "alarm/" + name_,
                                     mcps::net::StatusPayload{key, dominant});
                }
                return true;
            }
        } else {
            above_since = SimTime::never();
        }
        return false;
    };

    if (try_fire(AlarmSeverity::kCritical, cfg_.critical_threshold,
                 above_critical_since_)) {
        return;  // critical supersedes warning
    }
    try_fire(AlarmSeverity::kWarning, cfg_.warning_threshold,
             above_warning_since_);
}

}  // namespace mcps::core
