#include "gpca_pump.hpp"

#include <algorithm>

namespace mcps::devices {

using mcps::sim::SimDuration;
using mcps::sim::SimTime;
using physio::Dose;

void Prescription::validate() const {
    if (basal < physio::InfusionRate::zero()) {
        throw std::invalid_argument("Prescription: negative basal rate");
    }
    if (bolus_dose <= Dose::zero()) {
        throw std::invalid_argument("Prescription: bolus dose must be positive");
    }
    if (lockout <= SimDuration::zero()) {
        throw std::invalid_argument("Prescription: lockout must be positive");
    }
    if (max_hourly <= Dose::zero()) {
        throw std::invalid_argument("Prescription: hourly cap must be positive");
    }
    if (bolus_rate_mg_per_min <= 0) {
        throw std::invalid_argument("Prescription: bolus rate must be positive");
    }
    if (bolus_dose > max_hourly) {
        throw std::invalid_argument(
            "Prescription: a single bolus exceeds the hourly cap");
    }
}

std::string_view to_string(PumpState s) noexcept {
    switch (s) {
        case PumpState::kOff: return "off";
        case PumpState::kSelfTest: return "selftest";
        case PumpState::kIdle: return "idle";
        case PumpState::kInfusing: return "infusing";
        case PumpState::kBolusActive: return "bolus";
        case PumpState::kPaused: return "paused";
        case PumpState::kAlarm: return "alarm";
    }
    return "unknown";
}

std::string_view to_string(PumpAlarm a) noexcept {
    switch (a) {
        case PumpAlarm::kNone: return "none";
        case PumpAlarm::kOcclusion: return "occlusion";
        case PumpAlarm::kAirInLine: return "air-in-line";
        case PumpAlarm::kReservoirEmpty: return "reservoir-empty";
        case PumpAlarm::kHourlyLimit: return "hourly-limit";
    }
    return "unknown";
}

GpcaPump::GpcaPump(DeviceContext ctx, std::string name,
                   physio::Patient& patient, Prescription rx, PumpConfig cfg)
    : Device{ctx, std::move(name), DeviceKind::kInfusionPump},
      patient_{patient},
      rx_{rx},
      cfg_{cfg},
      reservoir_{cfg.reservoir} {
    rx_.validate();
    if (cfg_.tick <= SimDuration::zero()) {
        throw std::invalid_argument("PumpConfig: tick must be positive");
    }
    add_capability("analgesia");
    add_capability("bolus");
    add_capability("remote-stop");
}

void GpcaPump::on_start() {
    enter_state(PumpState::kSelfTest, "power-on");
    // Remote command surface.
    cmd_sub_ = bus().subscribe(name(), "cmd/" + name(),
                               [this](const mcps::net::Message& m) {
                                   handle_command(m);
                               });
    sim().schedule_after(cfg_.selftest_duration, [this] {
        if (state_ == PumpState::kSelfTest) {
            enter_state(PumpState::kInfusing, "selftest-pass");
        }
    });
    tick_handle_ = sim().schedule_periodic(cfg_.tick, [this] { tick(); });
    status_handle_ = sim().schedule_periodic(cfg_.status_period, [this] {
        publish_status(std::string{to_string(state_)},
                       std::string{to_string(alarm_)});
    });
}

void GpcaPump::on_stop() {
    tick_handle_.cancel();
    status_handle_.cancel();
    bus().unsubscribe(cmd_sub_);
    enter_state(PumpState::kOff, "power-off");
}

void GpcaPump::enter_state(PumpState s, const std::string& why) {
    if (state_ == s) return;
    state_ = s;
    emit(mcps::obs::EventKind::kDeviceState, to_string(s));
    publish_status(std::string{to_string(s)}, why);
}

void GpcaPump::raise_alarm(PumpAlarm a) {
    alarm_ = a;
    emit(mcps::obs::EventKind::kAlarm, to_string(a));
    if (a == PumpAlarm::kHourlyLimit) {
        // Advisory only: boluses are being denied but basal continues
        // (subject to the same cap check in tick()).
        publish("alarm/" + name(),
                mcps::net::StatusPayload{"advisory", std::string{to_string(a)}});
        return;
    }
    // Critical alarms latch and stop all delivery (R3).
    bolus_remaining_ = Dose::zero();
    enter_state(PumpState::kAlarm, std::string{to_string(a)});
    publish("alarm/" + name(),
            mcps::net::StatusPayload{"critical", std::string{to_string(a)}});
}

void GpcaPump::prune_window() {
    const SimTime cutoff = sim().now() - SimDuration::hours(1);
    while (!window_mg_.empty() && window_mg_.front().first < cutoff) {
        window_total_mg_ -= window_mg_.front().second;
        window_mg_.pop_front();
    }
    if (window_total_mg_ < 0) window_total_mg_ = 0;
}

Dose GpcaPump::delivered_last_hour() const {
    // Note: may include slightly stale entries between ticks; tick()
    // prunes before every delivery decision.
    return Dose::mg(window_total_mg_);
}

void GpcaPump::deliver(Dose d) {
    if (d <= Dose::zero()) return;
    const Dose actual = std::min(d, reservoir_);
    if (actual > Dose::zero()) {
        patient_.bolus(actual);
        reservoir_ -= actual;
        window_mg_.emplace_back(sim().now(), actual.as_mg());
        window_total_mg_ += actual.as_mg();
        stats_.total_delivered += actual;
    }
    if (reservoir_ <= Dose::zero()) {
        raise_alarm(PumpAlarm::kReservoirEmpty);  // R5
    }
}

void GpcaPump::tick() {
    if (!delivering()) return;
    prune_window();

    const double dt_min = cfg_.tick.to_seconds() / 60.0;
    const double cap_mg = rx_.max_hourly.as_mg();

    // Basal component, throttled so the sliding-window cap holds (R2).
    double basal_mg = rx_.basal.as_mg_per_hour() / 60.0 * dt_min;
    basal_mg = std::min(basal_mg, std::max(0.0, cap_mg - window_total_mg_));

    // Bolus component.
    double bolus_mg = 0.0;
    if (state_ == PumpState::kBolusActive) {
        bolus_mg = std::min(bolus_remaining_.as_mg(),
                            rx_.bolus_rate_mg_per_min * dt_min);
        bolus_mg = std::min(
            bolus_mg, std::max(0.0, cap_mg - window_total_mg_ - basal_mg));
        bolus_remaining_ -= Dose::mg(bolus_mg);
        if (bolus_remaining_ <= Dose::mg(1e-9)) {
            bolus_remaining_ = Dose::zero();
            enter_state(PumpState::kInfusing, "bolus-complete");
        }
    }

    deliver(Dose::mg(basal_mg + bolus_mg));
    if (window_signal_ == nullptr) {
        window_signal_ = &trace().signal("pump/" + name() + "/window_mg",
                                         cfg_.tick);
    }
    window_signal_->record(sim().now(), window_total_mg_);
}

bool GpcaPump::press_button() {
    ++stats_.boluses_requested;
    emit(mcps::obs::EventKind::kDeviceState, "button");

    if (state_ != PumpState::kInfusing && state_ != PumpState::kBolusActive) {
        ++stats_.denied_state;  // R6
        return false;
    }
    if (state_ == PumpState::kBolusActive || sim().now() < lockout_until_) {
        ++stats_.denied_lockout;  // R1
        return false;
    }
    prune_window();
    // Epsilon guards against accumulated per-tick rounding in the window
    // sum denying a bolus that exactly fits the cap.
    if (window_total_mg_ + rx_.bolus_dose.as_mg() >
        rx_.max_hourly.as_mg() + 1e-9) {
        ++stats_.denied_hourly;  // R2
        raise_alarm(PumpAlarm::kHourlyLimit);
        return false;
    }

    bolus_remaining_ = rx_.bolus_dose;
    lockout_until_ = sim().now() + rx_.lockout;
    ++stats_.boluses_delivered;
    enter_state(PumpState::kBolusActive, "bolus-start");
    return true;
}

void GpcaPump::operator_pause() {
    if (state_ == PumpState::kInfusing || state_ == PumpState::kBolusActive) {
        bolus_remaining_ = Dose::zero();
        enter_state(PumpState::kPaused, "operator-pause");
    }
}

void GpcaPump::operator_resume() {
    if (state_ == PumpState::kPaused || state_ == PumpState::kIdle) {
        enter_state(PumpState::kInfusing, "operator-resume");
    }
}

void GpcaPump::clear_alarm() {
    if (state_ != PumpState::kAlarm) {
        if (alarm_ == PumpAlarm::kHourlyLimit) alarm_ = PumpAlarm::kNone;
        return;
    }
    if (alarm_ == PumpAlarm::kReservoirEmpty && reservoir_ <= Dose::zero()) {
        return;  // cannot clear until the reservoir is replaced
    }
    alarm_ = PumpAlarm::kNone;
    enter_state(PumpState::kIdle, "alarm-cleared");
}

void GpcaPump::inject_fault(PumpAlarm fault) {
    if (fault == PumpAlarm::kNone) return;
    raise_alarm(fault);
}

void GpcaPump::set_prescription(const Prescription& rx) {
    if (state_ != PumpState::kIdle && state_ != PumpState::kPaused &&
        state_ != PumpState::kOff) {
        throw std::logic_error(
            "set_prescription: pump must be idle/paused, is " +
            std::string{to_string(state_)});
    }
    rx.validate();
    rx_ = rx;
}

void GpcaPump::handle_command(const mcps::net::Message& m) {
    const auto* cmd = mcps::net::payload_as<mcps::net::CommandPayload>(m);
    if (!cmd) return;

    bool ok = true;
    std::string detail;
    if (cmd->action == "stop_infusion") {
        // R4: unconditional, immediate stop of all delivery.
        bolus_remaining_ = Dose::zero();
        ++stats_.remote_stops;
        if (delivering()) enter_state(PumpState::kPaused, "remote-stop");
        detail = "stopped";
    } else if (cmd->action == "pause") {
        operator_pause();
        detail = "paused";
    } else if (cmd->action == "resume") {
        operator_resume();
        ok = state_ == PumpState::kInfusing;
        detail = ok ? "resumed" : "resume-rejected";
    } else if (cmd->action == "bolus_request") {
        ok = press_button();
        detail = ok ? "bolus-started" : "bolus-denied";
    } else {
        ok = false;
        detail = "unknown-action:" + cmd->action;
    }
    emit(mcps::obs::EventKind::kPumpCommand, cmd->action + ":" + detail,
         static_cast<double>(cmd->command_seq));
    publish("ack/" + name(),
            mcps::net::AckPayload{cmd->command_seq, ok, detail});
}

}  // namespace mcps::devices
