#include "pca_interlock.hpp"

#include <stdexcept>

namespace mcps::core {

using mcps::obs::EventKind;
using mcps::sim::SimDuration;
using mcps::sim::SimTime;

std::string_view to_string(InterlockMode m) noexcept {
    switch (m) {
        case InterlockMode::kSpO2Only: return "spo2-only";
        case InterlockMode::kDualSensor: return "dual-sensor";
    }
    return "unknown";
}

std::string_view to_string(DataLossPolicy p) noexcept {
    switch (p) {
        case DataLossPolicy::kFailSafe: return "fail-safe";
        case DataLossPolicy::kFailOperational: return "fail-operational";
    }
    return "unknown";
}

std::string_view to_string(InterlockState s) noexcept {
    switch (s) {
        case InterlockState::kMonitoring: return "monitoring";
        case InterlockState::kTriggered: return "triggered";
        case InterlockState::kDataLoss: return "data-loss";
    }
    return "unknown";
}

PcaInterlock::PcaInterlock(devices::DeviceContext ctx, std::string name,
                           InterlockConfig cfg)
    : ice::VmdApp{std::move(name)}, ctx_{ctx}, cfg_{std::move(cfg)} {
    if (cfg_.persistence < SimDuration::zero() ||
        cfg_.check_period <= SimDuration::zero() ||
        cfg_.staleness_limit <= SimDuration::zero() ||
        cfg_.command_retry <= SimDuration::zero()) {
        throw std::invalid_argument("InterlockConfig: non-positive durations");
    }
    if (cfg_.spo2_stop > cfg_.spo2_warn) {
        throw std::invalid_argument(
            "InterlockConfig: stop threshold must not exceed warn threshold");
    }
}

std::vector<ice::Requirement> PcaInterlock::requirements() const {
    std::vector<ice::Requirement> reqs{
        {devices::DeviceKind::kInfusionPump, {"remote-stop"}, "pump"},
        {devices::DeviceKind::kPulseOximeter, {"spo2"}, "oximeter"},
    };
    if (cfg_.mode == InterlockMode::kDualSensor) {
        reqs.push_back(
            {devices::DeviceKind::kCapnometer, {"etco2"}, "capnometer"});
    }
    return reqs;
}

void PcaInterlock::bind(const std::vector<ice::DeviceDescriptor>& devices) {
    const auto expected = requirements().size();
    if (devices.size() != expected) {
        throw std::invalid_argument("PcaInterlock::bind: expected " +
                                    std::to_string(expected) + " devices, got " +
                                    std::to_string(devices.size()));
    }
    pump_name_ = devices[0].name;
    oximeter_name_ = devices[1].name;
    if (cfg_.mode == InterlockMode::kDualSensor) {
        capnometer_name_ = devices[2].name;
    }
}

void PcaInterlock::on_app_start() {
    if (pump_name_.empty()) {
        throw std::logic_error("PcaInterlock: on_app_start before bind");
    }
    subs_.push_back(ctx_.bus.subscribe(
        name(), "vitals/" + cfg_.bed + "/*",
        [this](const mcps::net::Message& m) { on_vital(m); }));
    subs_.push_back(ctx_.bus.subscribe(
        name(), "ack/" + pump_name_,
        [this](const mcps::net::Message& m) { on_ack(m); }));
    check_handle_ =
        ctx_.sim.schedule_periodic(cfg_.check_period, [this] { check(); });
}

void PcaInterlock::on_app_stop() {
    check_handle_.cancel();
    retry_handle_.cancel();
    for (auto s : subs_) ctx_.bus.unsubscribe(s);
    subs_.clear();
}

void PcaInterlock::on_device_lost(const std::string& device_name) {
    ctx_.emit(EventKind::kAppState, name(), "device_lost/" + device_name);
    if (device_name == pump_name_) {
        // Cannot command a dead pump; nothing actionable (its own
        // fail-safe hardware is the last line of defense).
        return;
    }
    device_lost_active_ = true;
    if (cfg_.data_loss == DataLossPolicy::kFailSafe) {
        issue_stop("device-lost:" + device_name);
        state_ = InterlockState::kDataLoss;
        ++stats_.data_loss_stops;
    }
}

void PcaInterlock::on_device_recovered(const std::string& device_name) {
    ctx_.emit(EventKind::kAppState, name(), "device_recovered/" + device_name);
    device_lost_active_ = false;
}

void PcaInterlock::on_vital(const mcps::net::Message& m) {
    const auto* v = mcps::net::payload_as<mcps::net::VitalSignPayload>(m);
    if (!v) return;
    if (const auto metric = vital_metric_from(v->metric)) {
        vitals_.set(*metric, VitalReading{v->value, v->valid, ctx_.sim.now()});
    }
}

void PcaInterlock::on_ack(const mcps::net::Message& m) {
    const auto* ack = mcps::net::payload_as<mcps::net::AckPayload>(m);
    if (!ack) return;
    if (ack->command_seq != pending_command_seq_) return;
    ++stats_.acks_received;
    if (!ack->success) return;  // keep retrying
    if (pending_cmd_ == PendingCmd::kStop) {
        if (!trigger_onset_.is_never()) {
            stats_.last_stop_latency_ms =
                (ctx_.sim.now() - trigger_onset_).to_millis();
        }
        ctx_.emit(EventKind::kAppState, name(), "stop_acked",
                  static_cast<double>(ack->command_seq));
    } else if (pending_cmd_ == PendingCmd::kResume) {
        ctx_.emit(EventKind::kAppState, name(), "resume_acked",
                  static_cast<double>(ack->command_seq));
    }
    pending_cmd_ = PendingCmd::kNone;
    retry_handle_.cancel();
}

bool PcaInterlock::metric_fresh(VitalMetric metric) const {
    return vitals_[metric].fresh(ctx_.sim.now(), cfg_.staleness_limit);
}

std::optional<double> PcaInterlock::metric_value(VitalMetric metric) const {
    const VitalReading& r = vitals_[metric];
    if (!r.seen()) return std::nullopt;
    return r.value;
}

bool PcaInterlock::condition_now() const {
    const auto spo2 = metric_value(VitalMetric::kSpo2);
    const bool spo2_fresh = metric_fresh(VitalMetric::kSpo2);

    if (cfg_.mode == InterlockMode::kSpO2Only) {
        return spo2_fresh && spo2 && *spo2 < cfg_.spo2_stop;
    }

    const auto etco2 = metric_value(VitalMetric::kEtco2);
    const auto rr = metric_value(VitalMetric::kRespRate);
    const bool cap_fresh = metric_fresh(VitalMetric::kEtco2);

    const bool spo2_critical = spo2_fresh && spo2 && *spo2 < cfg_.spo2_stop;
    const bool spo2_warning = spo2_fresh && spo2 && *spo2 < cfg_.spo2_warn;
    const bool resp_critical =
        cap_fresh && ((etco2 && (*etco2 < cfg_.etco2_low ||
                                 *etco2 > cfg_.etco2_high)) ||
                      (rr && metric_fresh(VitalMetric::kRespRate) &&
                       *rr < cfg_.rr_low));

    // Either sensor alone at critical level, or a concordant warning on
    // both: capnometry's fast response plus oximetry's specificity.
    return spo2_critical || resp_critical || (spo2_warning && resp_critical);
}

bool PcaInterlock::vitals_normal_now() const {
    const auto spo2 = metric_value(VitalMetric::kSpo2);
    if (!metric_fresh(VitalMetric::kSpo2) || !spo2 || *spo2 < cfg_.spo2_warn) {
        return false;
    }
    if (cfg_.mode == InterlockMode::kDualSensor) {
        const auto etco2 = metric_value(VitalMetric::kEtco2);
        const auto rr = metric_value(VitalMetric::kRespRate);
        if (!metric_fresh(VitalMetric::kEtco2) || !etco2 ||
            *etco2 < cfg_.etco2_low + 5.0 || *etco2 > cfg_.etco2_high - 5.0) {
            return false;
        }
        if (!metric_fresh(VitalMetric::kRespRate) || !rr ||
            *rr < cfg_.rr_low + 2.0) {
            return false;
        }
    }
    return true;
}

void PcaInterlock::send_pending_command() {
    if (pending_cmd_ == PendingCmd::kNone) return;
    mcps::net::CommandPayload cmd;
    if (pending_cmd_ == PendingCmd::kStop) {
        ++stats_.stop_commands_sent;
        cmd.action = "stop_infusion";
    } else {
        cmd.action = "resume";
    }
    cmd.command_seq = pending_command_seq_;
    ctx_.bus.publish(name(), "cmd/" + pump_name_, cmd);
}

void PcaInterlock::issue_stop(const std::string& why) {
    if (state_ == InterlockState::kTriggered ||
        state_ == InterlockState::kDataLoss) {
        return;  // already stopping/stopped
    }
    state_ = InterlockState::kTriggered;
    ++stats_.stops_issued;
    pending_cmd_ = PendingCmd::kStop;
    pending_command_seq_ = next_command_seq_++;
    trigger_onset_ =
        condition_since_.is_never() ? ctx_.sim.now() : condition_since_;
    ctx_.emit(EventKind::kInterlockTrip, name(), "stop/" + why,
              static_cast<double>(stats_.stops_issued));
    send_pending_command();
    // Retries ride until the ack lands — the command channel is lossy too.
    retry_handle_.cancel();
    retry_handle_ = ctx_.sim.schedule_periodic(cfg_.command_retry, [this] {
        if (pending_cmd_ != PendingCmd::kNone) send_pending_command();
    });
}

void PcaInterlock::issue_resume() {
    state_ = InterlockState::kMonitoring;
    ++stats_.resumes_issued;
    pending_cmd_ = PendingCmd::kResume;
    pending_command_seq_ = next_command_seq_++;
    ctx_.emit(EventKind::kInterlockTrip, name(), "resume",
              static_cast<double>(stats_.resumes_issued));
    send_pending_command();
    // Resume rides the same lossy network: retry until acknowledged.
    retry_handle_.cancel();
    retry_handle_ = ctx_.sim.schedule_periodic(cfg_.command_retry, [this] {
        if (pending_cmd_ != PendingCmd::kNone) send_pending_command();
    });
}

void PcaInterlock::check() {
    const SimTime now = ctx_.sim.now();

    // --- Data-loss handling -------------------------------------------
    const bool spo2_lost = !metric_fresh(VitalMetric::kSpo2);
    const bool cap_lost = cfg_.mode == InterlockMode::kDualSensor &&
                          !metric_fresh(VitalMetric::kEtco2);
    const bool any_lost = spo2_lost || cap_lost || device_lost_active_;
    // Grace period: don't declare loss before the first sample ever had a
    // chance to arrive.
    const bool past_warmup = now.since_origin() > cfg_.staleness_limit;

    if (any_lost && past_warmup) {
        if (cfg_.data_loss == DataLossPolicy::kFailSafe &&
            state_ == InterlockState::kMonitoring) {
            issue_stop(spo2_lost ? "stale:spo2"
                                 : (cap_lost ? "stale:etco2" : "device-lost"));
            state_ = InterlockState::kDataLoss;
            ++stats_.data_loss_stops;
        }
        // Fail-operational: fall through and evaluate on last values.
    } else if (state_ == InterlockState::kDataLoss && !any_lost) {
        // Data back: downgrade to Triggered so the normal recovery path
        // (recovery_hold) applies.
        state_ = InterlockState::kTriggered;
    }

    // --- Trigger-condition persistence --------------------------------
    if (condition_now()) {
        if (condition_since_.is_never()) condition_since_ = now;
        normal_since_ = SimTime::never();
        if (state_ == InterlockState::kMonitoring &&
            now - condition_since_ >= cfg_.persistence) {
            issue_stop("respiratory-depression");
        }
    } else {
        condition_since_ = SimTime::never();
    }

    // --- Recovery / auto-resume ----------------------------------------
    if (state_ == InterlockState::kTriggered && cfg_.auto_resume) {
        if (vitals_normal_now()) {
            if (normal_since_.is_never()) normal_since_ = now;
            if (now - normal_since_ >= cfg_.recovery_hold) {
                issue_resume();
                normal_since_ = SimTime::never();
            }
        } else {
            normal_since_ = SimTime::never();
        }
    }
}

}  // namespace mcps::core
