#include "ventilator.hpp"

#include <algorithm>

namespace mcps::devices {

using mcps::sim::SimDuration;

std::string_view to_string(VentMode m) noexcept {
    switch (m) {
        case VentMode::kStandby: return "standby";
        case VentMode::kVentilating: return "ventilating";
        case VentMode::kPaused: return "paused";
    }
    return "unknown";
}

Ventilator::Ventilator(DeviceContext ctx, std::string name,
                       physio::Patient& patient, VentilatorConfig cfg)
    : Device{ctx, std::move(name), DeviceKind::kVentilator},
      patient_{patient},
      cfg_{cfg} {
    if (cfg_.max_pause <= SimDuration::zero()) {
        throw std::invalid_argument("VentilatorConfig: max_pause must be > 0");
    }
    add_capability("ventilation");
    add_capability("remote-pause");
}

void Ventilator::on_start() {
    cmd_sub_ = bus().subscribe(name(), "cmd/" + name(),
                               [this](const mcps::net::Message& m) {
                                   handle_command(m);
                               });
    status_handle_ = sim().schedule_periodic(cfg_.status_period, [this] {
        publish_status(std::string{to_string(mode_)});
    });
    enter_mode(VentMode::kVentilating, "start");
}

void Ventilator::on_stop() {
    safety_timer_.cancel();
    status_handle_.cancel();
    bus().unsubscribe(cmd_sub_);
    enter_mode(VentMode::kStandby, "stop");
}

void Ventilator::enter_mode(VentMode m, const std::string& why) {
    if (mode_ == m) return;
    mode_ = m;
    switch (m) {
        case VentMode::kVentilating:
            patient_.set_mechanical_ventilation(
                physio::MechanicalVentilation{cfg_.rate, cfg_.tidal_ml});
            break;
        case VentMode::kPaused:
            // Inspiratory hold: mechanically ventilated at zero rate.
            patient_.set_mechanical_ventilation(physio::MechanicalVentilation{
                physio::RespRate::per_minute(0.0), 0.0});
            break;
        case VentMode::kStandby:
            patient_.set_mechanical_ventilation(std::nullopt);
            break;
    }
    emit(mcps::obs::EventKind::kDeviceState, to_string(m));
    publish_status(std::string{to_string(m)}, why);
}

bool Ventilator::pause(SimDuration requested) {
    if (mode_ != VentMode::kVentilating) return false;
    if (requested <= SimDuration::zero()) return false;
    const SimDuration granted = std::min(requested, cfg_.max_pause);
    ++stats_.pauses;
    enter_mode(VentMode::kPaused, "pause");
    safety_timer_.cancel();
    // Safety requirement V1: a pause always ends, commanded or not.
    safety_timer_ = sim().schedule_after(granted, [this] {
        if (mode_ == VentMode::kPaused) {
            ++stats_.safety_auto_resumes;
            emit(mcps::obs::EventKind::kDeviceState, "auto-resume");
            publish("alarm/" + name(),
                    mcps::net::StatusPayload{"advisory", "safety-auto-resume"});
            enter_mode(VentMode::kVentilating, "safety-timeout");
        }
    });
    return true;
}

void Ventilator::resume() {
    if (mode_ != VentMode::kPaused) return;
    ++stats_.command_resumes;
    safety_timer_.cancel();
    enter_mode(VentMode::kVentilating, "resume");
}

bool Ventilator::chest_moving() const noexcept {
    if (mode_ == VentMode::kVentilating) return true;
    if (mode_ == VentMode::kPaused) return false;
    // Standby: the patient may be breathing spontaneously.
    return !patient_.is_apneic();
}

void Ventilator::handle_command(const mcps::net::Message& m) {
    const auto* cmd = mcps::net::payload_as<mcps::net::CommandPayload>(m);
    if (!cmd) return;
    bool ok = true;
    std::string detail;
    if (cmd->action == "pause") {
        double secs = cfg_.max_pause.to_seconds();
        if (auto it = cmd->args.find("duration_s"); it != cmd->args.end()) {
            secs = it->second;
        }
        ok = pause(SimDuration::from_seconds(secs));
        detail = ok ? "paused" : "pause-rejected";
    } else if (cmd->action == "resume") {
        resume();
        detail = "resumed";
    } else {
        ok = false;
        detail = "unknown-action:" + cmd->action;
    }
    publish("ack/" + name(), mcps::net::AckPayload{cmd->command_seq, ok, detail});
}

}  // namespace mcps::devices
