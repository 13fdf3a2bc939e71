/// \file supervisor.hpp
/// \brief ICE supervisor: deploys VMD apps and monitors device liveness.
///
/// The supervisor is the trusted coordinator of the on-demand MCPS: it
/// resolves app requirements against the registry (the "assembly at the
/// bedside"), runs the apps, and watches every bound device's heartbeat.
/// Heartbeat loss triggers the app's fail-safe callback — the mechanism
/// by which "network died" becomes "pump stopped" rather than "patient
/// overdosed silently".

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app.hpp"
#include "devices/device.hpp"
#include "registry.hpp"

namespace mcps::ice {

struct SupervisorConfig {
    /// A device is declared lost when no heartbeat arrives for this long.
    mcps::sim::SimDuration heartbeat_timeout = mcps::sim::SimDuration::seconds(6);
    /// How often liveness is evaluated.
    mcps::sim::SimDuration check_period = mcps::sim::SimDuration::seconds(1);
};

/// Outcome of a deployment attempt.
struct DeployResult {
    bool ok = false;
    std::string error;
    std::vector<std::string> bound_devices;
    /// Simulated time the assembly (resolve + bind + start) took.
    mcps::sim::SimDuration assembly_time;
};

/// Liveness bookkeeping exposed for tests/benches.
struct LivenessInfo {
    mcps::sim::SimTime last_heartbeat;
    bool lost = false;
};

class Supervisor : public devices::Device {
public:
    Supervisor(devices::DeviceContext ctx, std::string name,
               DeviceRegistry& registry, SupervisorConfig cfg = {});

    /// Resolve, bind and start an app. The app must outlive the
    /// supervisor or be undeployed first.
    DeployResult deploy(VmdApp& app);

    /// Stop an app and release its devices from liveness monitoring.
    /// Returns false if the app is not deployed.
    bool undeploy(VmdApp& app);

    [[nodiscard]] bool is_deployed(const VmdApp& app) const;
    [[nodiscard]] std::size_t deployed_count() const noexcept {
        return deployments_.size();
    }

    /// Liveness view of a monitored device (nullptr if unmonitored).
    [[nodiscard]] const LivenessInfo* liveness(const std::string& device) const;

    /// Number of device-lost events raised so far.
    [[nodiscard]] std::uint64_t lost_events() const noexcept {
        return lost_events_;
    }

protected:
    void on_start() override;
    void on_stop() override;

private:
    struct Deployment {
        VmdApp* app;
        std::vector<std::string> devices;
    };

    void watch(const std::string& device);
    void mark_lost(const std::string& device, LivenessInfo& info);
    void unwatch_unused();
    void check_liveness();
    void on_heartbeat(const mcps::net::Message& m);
    void on_status(const mcps::net::Message& m);

    DeviceRegistry& registry_;
    SupervisorConfig cfg_;
    std::vector<Deployment> deployments_;
    /// Transparent comparator: the bus handlers look a device up by a
    /// view of the message topic, without building a string.
    std::map<std::string, LivenessInfo, std::less<>> liveness_;
    std::uint64_t lost_events_ = 0;
    mcps::sim::EventHandle check_handle_;
    mcps::net::SubscriptionId hb_sub_;
    mcps::net::SubscriptionId status_sub_;
};

}  // namespace mcps::ice
