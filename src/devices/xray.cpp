#include "xray.hpp"

namespace mcps::devices {

using mcps::sim::SimDuration;

XRayMachine::XRayMachine(DeviceContext ctx, std::string name,
                         MotionProbe motion_probe, XRayConfig cfg)
    : Device{ctx, std::move(name), DeviceKind::kXRay},
      motion_probe_{std::move(motion_probe)},
      cfg_{cfg} {
    if (!motion_probe_) {
        throw std::invalid_argument("XRayMachine: null motion probe");
    }
    if (cfg_.exposure <= SimDuration::zero() ||
        cfg_.motion_sample <= SimDuration::zero()) {
        throw std::invalid_argument("XRayConfig: non-positive durations");
    }
    add_capability("imaging");
}

void XRayMachine::on_start() {
    cmd_sub_ = bus().subscribe(name(), "cmd/" + name(),
                               [this](const mcps::net::Message& m) {
                                   handle_command(m);
                               });
}

void XRayMachine::on_stop() {
    sampler_.cancel();
    bus().unsubscribe(cmd_sub_);
    busy_ = false;
}

bool XRayMachine::expose() {
    if (busy_ || !running()) return false;
    busy_ = true;
    emit(mcps::obs::EventKind::kDeviceState, "prep");
    publish_status("prep");
    sim().schedule_after(cfg_.prep_time, [this] { begin_window(); });
    return true;
}

void XRayMachine::begin_window() {
    if (!running()) {
        busy_ = false;
        return;
    }
    motion_hits_ = 0;
    motion_samples_ = 0;
    emit(mcps::obs::EventKind::kDeviceState, "expose");
    publish_status("exposing");
    sampler_ = sim().schedule_periodic(cfg_.motion_sample, [this] {
        ++motion_samples_;
        if (motion_probe_()) ++motion_hits_;
    });
    sim().schedule_after(cfg_.exposure, [this] { finish_window(); });
}

void XRayMachine::finish_window() {
    sampler_.cancel();
    if (!running()) {
        busy_ = false;
        return;
    }
    ImageResult r;
    r.exposed_at = sim().now();
    r.motion_fraction =
        motion_samples_ == 0
            ? 0.0
            : static_cast<double>(motion_hits_) /
                  static_cast<double>(motion_samples_);
    r.sharp = r.motion_fraction <= cfg_.blur_fraction_threshold;
    results_.push_back(r);
    busy_ = false;
    emit(mcps::obs::EventKind::kDeviceState, r.sharp ? "sharp" : "blurred",
         r.motion_fraction);
    publish("image/" + name(),
            mcps::net::StatusPayload{r.sharp ? "sharp" : "blurred",
                                     "motion=" +
                                         std::to_string(r.motion_fraction)});
}

void XRayMachine::handle_command(const mcps::net::Message& m) {
    const auto* cmd = mcps::net::payload_as<mcps::net::CommandPayload>(m);
    if (!cmd) return;
    bool ok = true;
    std::string detail;
    if (cmd->action == "expose") {
        ok = expose();
        detail = ok ? "exposing" : "busy";
    } else {
        ok = false;
        detail = "unknown-action:" + cmd->action;
    }
    publish("ack/" + name(), mcps::net::AckPayload{cmd->command_seq, ok, detail});
}

}  // namespace mcps::devices
