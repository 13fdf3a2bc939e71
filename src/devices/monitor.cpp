#include "monitor.hpp"

namespace mcps::devices {

using mcps::sim::SimDuration;
using mcps::sim::SimTime;

MonitorConfig MonitorConfig::adult_defaults(std::string bed) {
    MonitorConfig cfg;
    cfg.bed = std::move(bed);
    cfg.rules = {
        ThresholdRule{"spo2", 90.0, 1e300, 1},
        ThresholdRule{"resp_rate", 8.0, 30.0, 1},
        ThresholdRule{"etco2", 15.0, 60.0, 1},
        ThresholdRule{"pulse_rate", 45.0, 130.0, 1},
    };
    return cfg;
}

BedsideMonitor::BedsideMonitor(DeviceContext ctx, std::string name,
                               MonitorConfig cfg)
    : Device{ctx, std::move(name), DeviceKind::kMonitor}, cfg_{std::move(cfg)} {
    add_capability("display");
    add_capability("threshold-alarms");
}

void BedsideMonitor::on_start() {
    sub_ = bus().subscribe(name(), "vitals/" + cfg_.bed + "/*",
                           [this](const mcps::net::Message& m) { on_vital(m); });
}

void BedsideMonitor::on_stop() { bus().unsubscribe(sub_); }

std::optional<MetricView> BedsideMonitor::latest(
    const std::string& metric) const {
    auto it = latest_.find(metric);
    if (it == latest_.end()) return std::nullopt;
    return it->second;
}

bool BedsideMonitor::is_stale(const std::string& metric) const {
    auto it = latest_.find(metric);
    if (it == latest_.end()) return true;
    return sim().now() - it->second.updated_at > cfg_.staleness_limit;
}

void BedsideMonitor::fire(const std::string& metric, double value,
                          const std::string& why) {
    if (auto it = last_fired_.find(metric); it != last_fired_.end()) {
        if (sim().now() - it->second < cfg_.rearm) return;
    }
    last_fired_[metric] = sim().now();
    alarms_.push_back(MonitorAlarm{sim().now(), metric, value, why});
    emit(mcps::obs::EventKind::kAlarm, metric + "/" + why, value);
    publish("alarm/" + name(),
            mcps::net::StatusPayload{"threshold", metric + ":" + why});
}

void BedsideMonitor::on_vital(const mcps::net::Message& m) {
    const auto* v = mcps::net::payload_as<mcps::net::VitalSignPayload>(m);
    if (!v) return;
    latest_[v->metric] = MetricView{v->value, v->valid, sim().now()};

    for (const auto& rule : cfg_.rules) {
        if (rule.metric != v->metric) continue;
        const bool low = v->value < rule.low;
        const bool high = v->value > rule.high;
        int& streak = violation_streak_[v->metric];
        if (low || high) {
            if (++streak >= rule.persistence) {
                fire(v->metric, v->value, low ? "low" : "high");
            }
        } else {
            streak = 0;
        }
    }
}

}  // namespace mcps::devices
