/// \file device.hpp
/// \brief Common base for simulated medical devices on the ICE bus.
///
/// Every device has a stable name, a declared DeviceKind and capability
/// list (used by the ICE registry for on-demand scenario assembly), a
/// lifecycle (start/stop), and an optional periodic heartbeat that
/// supervisors use for liveness monitoring — the paper's "devices from
/// several vendors assembled at the bedside" become instances of these
/// classes wired to one Bus.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/bus.hpp"
#include "obs/event_log.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"

namespace mcps::devices {

/// Coarse device taxonomy used for capability matching.
enum class DeviceKind {
    kInfusionPump,
    kPulseOximeter,
    kCapnometer,
    kVentilator,
    kXRay,
    kMonitor,
    kSupervisor,
};

[[nodiscard]] std::string_view to_string(DeviceKind k) noexcept;

/// Shared wiring for a device: the simulation kernel, the data bus, the
/// trace recorder (sampled signals) and the event log every component
/// of a scenario records its semantic facts into. All references must
/// outlive the device.
struct DeviceContext {
    mcps::sim::Simulation& sim;
    mcps::net::Bus& bus;
    mcps::sim::TraceRecorder& trace;
    mcps::obs::EventLog& events;

    /// Record one semantic fact at the current simulated time.
    void emit(mcps::obs::EventKind kind, std::string_view source,
              std::string_view detail, double value = 0.0) const {
        events.emit(kind, sim.now(), source, detail, value);
    }
};

/// Abstract device. Concrete devices implement on_start/on_stop and wire
/// their own subscriptions and periodic processes.
class Device {
public:
    /// \param ctx shared wiring (kernel/bus/trace; must outlive the device)
    /// \param name unique endpoint name, e.g. "pump1"
    /// \param kind taxonomy entry for registry matching
    Device(DeviceContext ctx, std::string name, DeviceKind kind);
    virtual ~Device();

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    /// Begin operating: emits a "online" status, starts heartbeats (if
    /// enabled via set_heartbeat_period) and calls on_start().
    void start();
    /// Stop operating: cancels heartbeats, calls on_stop(), emits
    /// "offline" status.
    void stop();
    [[nodiscard]] bool running() const noexcept { return running_; }

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] DeviceKind kind() const noexcept { return kind_; }

    /// Capability tags advertised to the registry ("spo2", "bolus", ...).
    [[nodiscard]] const std::vector<std::string>& capabilities() const noexcept {
        return capabilities_;
    }

    /// Enable periodic heartbeats on topic "heartbeat/<name>".
    /// Must be called before start(); zero disables.
    void set_heartbeat_period(mcps::sim::SimDuration period);

    /// Simulate a crash: the device stops publishing everything
    /// (including heartbeats) without an "offline" status — the failure
    /// mode supervisors must detect by heartbeat loss.
    void crash();
    [[nodiscard]] bool crashed() const noexcept { return crashed_; }

protected:
    virtual void on_start() = 0;
    virtual void on_stop() = 0;

    /// Publish helpers; silently swallowed when crashed or stopped. A
    /// topic published every period is advertised once (advertise())
    /// and published through its handle.
    void publish(mcps::net::Publisher pub, mcps::net::Payload payload);
    void publish(std::string_view topic, mcps::net::Payload payload);
    /// Advertise \p topic with this device as sender.
    [[nodiscard]] mcps::net::Publisher advertise(std::string_view topic) {
        return ctx_.bus.advertise(name_, topic);
    }
    /// Publish "status/<name>" with the given state/detail.
    void publish_status(const std::string& state, const std::string& detail = "");

    [[nodiscard]] mcps::sim::Simulation& sim() noexcept { return ctx_.sim; }
    [[nodiscard]] const mcps::sim::Simulation& sim() const noexcept {
        return ctx_.sim;
    }
    [[nodiscard]] mcps::net::Bus& bus() noexcept { return ctx_.bus; }
    [[nodiscard]] mcps::sim::TraceRecorder& trace() noexcept { return ctx_.trace; }
    /// Record one semantic fact with this device as its source.
    void emit(mcps::obs::EventKind kind, std::string_view detail,
              double value = 0.0) {
        ctx_.emit(kind, name_, detail, value);
    }

    void add_capability(std::string cap) {
        capabilities_.push_back(std::move(cap));
    }

private:
    DeviceContext ctx_;
    std::string name_;
    DeviceKind kind_;
    mcps::net::Publisher heartbeat_pub_;  ///< "heartbeat/<name>"
    mcps::net::Publisher status_pub_;     ///< "status/<name>"
    std::vector<std::string> capabilities_;
    bool running_ = false;
    bool crashed_ = false;
    mcps::sim::SimDuration heartbeat_period_ = mcps::sim::SimDuration::zero();
    mcps::sim::EventHandle heartbeat_handle_;
    std::uint64_t heartbeat_count_ = 0;
};

}  // namespace mcps::devices
