#include "supervisor.hpp"

#include <algorithm>

namespace mcps::ice {

using mcps::sim::SimTime;

Supervisor::Supervisor(devices::DeviceContext ctx, std::string name,
                       DeviceRegistry& registry, SupervisorConfig cfg)
    : devices::Device{ctx, std::move(name), devices::DeviceKind::kSupervisor},
      registry_{registry},
      cfg_{cfg} {
    if (cfg_.heartbeat_timeout <= mcps::sim::SimDuration::zero() ||
        cfg_.check_period <= mcps::sim::SimDuration::zero()) {
        throw std::invalid_argument("SupervisorConfig: non-positive durations");
    }
    add_capability("app-hosting");
}

void Supervisor::on_start() {
    hb_sub_ = bus().subscribe(name(), "heartbeat/*",
                              [this](const mcps::net::Message& m) {
                                  on_heartbeat(m);
                              });
    status_sub_ = bus().subscribe(name(), "status/*",
                                  [this](const mcps::net::Message& m) {
                                      on_status(m);
                                  });
    check_handle_ = sim().schedule_periodic(cfg_.check_period,
                                            [this] { check_liveness(); });
}

void Supervisor::on_stop() {
    check_handle_.cancel();
    bus().unsubscribe(hb_sub_);
    bus().unsubscribe(status_sub_);
    // Stop remaining apps in reverse deployment order.
    for (auto it = deployments_.rbegin(); it != deployments_.rend(); ++it) {
        it->app->on_app_stop();
    }
    deployments_.clear();
    liveness_.clear();
}

DeployResult Supervisor::deploy(VmdApp& app) {
    DeployResult result;
    if (!running()) {
        result.error = "supervisor not running";
        return result;
    }
    if (is_deployed(app)) {
        result.error = "app '" + app.name() + "' already deployed";
        return result;
    }
    const SimTime t0 = sim().now();

    std::string missing;
    auto resolved = registry_.resolve(app.requirements(), missing);
    if (resolved.empty() && !app.requirements().empty()) {
        result.error = "unsatisfied requirement: " + missing;
        emit(mcps::obs::EventKind::kSupervisorState,
             "deploy_fail/" + app.name());
        return result;
    }

    app.bind(resolved);
    Deployment dep{&app, {}};
    for (const auto& d : resolved) {
        dep.devices.push_back(d.name);
        watch(d.name);
        result.bound_devices.push_back(d.name);
    }
    deployments_.push_back(std::move(dep));
    app.on_app_start();

    result.ok = true;
    result.assembly_time = sim().now() - t0;
    emit(mcps::obs::EventKind::kSupervisorState, "deploy/" + app.name(),
         static_cast<double>(result.bound_devices.size()));
    publish_status("deployed", app.name());
    return result;
}

bool Supervisor::undeploy(VmdApp& app) {
    const auto it = std::find_if(
        deployments_.begin(), deployments_.end(),
        [&](const Deployment& d) { return d.app == &app; });
    if (it == deployments_.end()) return false;
    app.on_app_stop();
    deployments_.erase(it);
    unwatch_unused();
    emit(mcps::obs::EventKind::kSupervisorState, "undeploy/" + app.name());
    publish_status("undeployed", app.name());
    return true;
}

bool Supervisor::is_deployed(const VmdApp& app) const {
    return std::any_of(deployments_.begin(), deployments_.end(),
                       [&](const Deployment& d) { return d.app == &app; });
}

const LivenessInfo* Supervisor::liveness(const std::string& device) const {
    auto it = liveness_.find(device);
    return it == liveness_.end() ? nullptr : &it->second;
}

void Supervisor::watch(const std::string& device) {
    // Starting fresh: assume alive as of now; the timeout will catch a
    // device that never heartbeats at all.
    auto [it, inserted] = liveness_.try_emplace(device);
    if (inserted) {
        it->second.last_heartbeat = sim().now();
        it->second.lost = false;
    }
}

void Supervisor::unwatch_unused() {
    for (auto it = liveness_.begin(); it != liveness_.end();) {
        const std::string& dev = it->first;
        const bool used = std::any_of(
            deployments_.begin(), deployments_.end(), [&](const Deployment& d) {
                return std::find(d.devices.begin(), d.devices.end(), dev) !=
                       d.devices.end();
            });
        it = used ? std::next(it) : liveness_.erase(it);
    }
}

void Supervisor::on_heartbeat(const mcps::net::Message& m) {
    // Topic is "heartbeat/<device>".
    const auto pos = m.topic.find('/');
    if (pos == std::string::npos) return;
    const auto it = liveness_.find(std::string_view{m.topic}.substr(pos + 1));
    if (it == liveness_.end()) return;
    const std::string& device = it->first;
    it->second.last_heartbeat = sim().now();
    if (it->second.lost) {
        it->second.lost = false;
        emit(mcps::obs::EventKind::kSupervisorState,
             "device_recovered/" + device);
        for (const auto& dep : deployments_) {
            if (std::find(dep.devices.begin(), dep.devices.end(), device) !=
                dep.devices.end()) {
                dep.app->on_device_recovered(device);
            }
        }
    }
}

void Supervisor::on_status(const mcps::net::Message& m) {
    const auto* st = mcps::net::payload_as<mcps::net::StatusPayload>(m);
    if (!st || st->state != "offline") return;
    const auto pos = m.topic.find('/');
    if (pos == std::string::npos) return;
    const auto it = liveness_.find(std::string_view{m.topic}.substr(pos + 1));
    if (it == liveness_.end() || it->second.lost) return;
    // Explicit offline: immediate loss, no need to wait for the timeout.
    mark_lost(it->first, it->second);
}

void Supervisor::mark_lost(const std::string& device, LivenessInfo& info) {
    info.lost = true;
    ++lost_events_;
    emit(mcps::obs::EventKind::kSupervisorState, "device_lost/" + device,
         static_cast<double>(lost_events_));
    publish("alarm/" + name(),
            mcps::net::StatusPayload{"device-lost", device});
    for (const auto& dep : deployments_) {
        if (std::find(dep.devices.begin(), dep.devices.end(), device) !=
            dep.devices.end()) {
            dep.app->on_device_lost(device);
        }
    }
}

void Supervisor::check_liveness() {
    const SimTime now = sim().now();
    for (auto& [device, info] : liveness_) {
        if (info.lost) continue;
        if (now - info.last_heartbeat <= cfg_.heartbeat_timeout) continue;
        mark_lost(device, info);
    }
}

}  // namespace mcps::ice
