#include "device.hpp"

namespace mcps::devices {

std::string_view to_string(DeviceKind k) noexcept {
    switch (k) {
        case DeviceKind::kInfusionPump: return "infusion-pump";
        case DeviceKind::kPulseOximeter: return "pulse-oximeter";
        case DeviceKind::kCapnometer: return "capnometer";
        case DeviceKind::kVentilator: return "ventilator";
        case DeviceKind::kXRay: return "x-ray";
        case DeviceKind::kMonitor: return "monitor";
        case DeviceKind::kSupervisor: return "supervisor";
    }
    return "unknown";
}

Device::Device(DeviceContext ctx, std::string name, DeviceKind kind)
    : ctx_{ctx}, name_{std::move(name)}, kind_{kind} {
    if (name_.empty()) throw std::invalid_argument("Device: empty name");
    heartbeat_pub_ = advertise("heartbeat/" + name_);
    status_pub_ = advertise("status/" + name_);
}

Device::~Device() {
    heartbeat_handle_.cancel();
}

void Device::set_heartbeat_period(mcps::sim::SimDuration period) {
    if (running_) {
        throw std::logic_error("set_heartbeat_period: device already started");
    }
    if (period < mcps::sim::SimDuration::zero()) {
        throw std::invalid_argument("set_heartbeat_period: negative period");
    }
    heartbeat_period_ = period;
}

void Device::start() {
    if (running_) return;
    running_ = true;
    crashed_ = false;
    publish_status("online");
    if (heartbeat_period_ > mcps::sim::SimDuration::zero()) {
        heartbeat_handle_ = ctx_.sim.schedule_periodic(
            heartbeat_period_, [this] {
                publish(heartbeat_pub_,
                        mcps::net::HeartbeatPayload{heartbeat_count_++});
            });
    }
    on_start();
}

void Device::stop() {
    if (!running_) return;
    heartbeat_handle_.cancel();
    on_stop();
    publish_status("offline");
    running_ = false;
}

void Device::crash() {
    if (!running_) return;
    crashed_ = true;
    heartbeat_handle_.cancel();
    emit(mcps::obs::EventKind::kDeviceState, "crash");
}

void Device::publish(mcps::net::Publisher pub, mcps::net::Payload payload) {
    if (crashed_ || !running_) return;
    ctx_.bus.publish(pub, std::move(payload));
}

void Device::publish(std::string_view topic, mcps::net::Payload payload) {
    if (crashed_ || !running_) return;
    ctx_.bus.publish(name_, topic, std::move(payload));
}

void Device::publish_status(const std::string& state,
                            const std::string& detail) {
    publish(status_pub_, mcps::net::StatusPayload{state, detail});
}

}  // namespace mcps::devices
