/// \file fault_plan.hpp
/// \brief Declarative fault plans and their injector.
///
/// A FaultPlan is a list of timed adversarial events — network faults
/// layered on net::Channel/Bus (outage, partition, loss burst, delay
/// spike, duplicate burst, reorder burst, corrupt burst) and device
/// faults (sensor dropout, pump command loss). Plans are plain data:
/// they serialize to one line per event in a repro file, they shrink by
/// removing events, and re-applying the same plan to the same generated
/// scenario reproduces the run bit-for-bit. The FaultInjector turns a
/// plan into scheduled actions against a live simulation.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "devices/capnometer.hpp"
#include "devices/pulse_oximeter.hpp"
#include "net/bus.hpp"
#include "sim/simulation.hpp"

namespace mcps::testkit {

/// The closed set of injectable faults.
enum class FaultKind {
    kOutage,        ///< total loss on one endpoint's link for a window
    kPartition,     ///< total loss on every link (switch death)
    kLossBurst,     ///< elevated loss probability on one endpoint
    kDelaySpike,    ///< base latency raised by magnitude ms (stale data)
    kDupBurst,      ///< elevated duplicate probability on one endpoint
    kReorderBurst,  ///< elevated reorder probability on one endpoint
    kCorruptBurst,  ///< elevated corrupt probability on one endpoint
    kOxiDropout,    ///< pulse-oximeter probe-off for the window
    kCapDropout,    ///< capnometer cannula displaced for the window
    kPumpCmdLoss,   ///< outage on the pump's command link specifically
};

[[nodiscard]] std::string_view to_string(FaultKind k) noexcept;
/// Inverse of to_string; nullopt for unknown names (corrupt repro files).
[[nodiscard]] std::optional<FaultKind> fault_kind_from(std::string_view s);

/// One timed fault. `at` is relative to scenario start.
struct FaultEvent {
    FaultKind kind = FaultKind::kOutage;
    mcps::sim::SimDuration at;
    mcps::sim::SimDuration duration;
    /// Endpoint name for network faults; ignored for device faults.
    std::string target;
    /// Kind-specific intensity: probability for loss/dup/reorder/corrupt
    /// bursts, extra latency in ms for delay spikes; unused otherwise.
    double magnitude = 0.0;
};

/// Whether \p magnitude lies in \p kind's domain: [0, 1] for the loss,
/// dup, reorder and corrupt bursts; for a delay spike, a non-negative
/// millisecond count whose microseconds fit int64. Kinds that ignore
/// the magnitude accept any finite value.
[[nodiscard]] bool magnitude_in_domain(FaultKind kind,
                                       double magnitude) noexcept;

/// An ordered collection of fault events. Order is not semantically
/// meaningful (all windows are absolute) but is preserved for stable
/// serialization and shrinking.
struct FaultPlan {
    std::vector<FaultEvent> events;

    [[nodiscard]] bool empty() const noexcept { return events.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return events.size(); }

    /// The plan minus the event at \p index (for greedy shrinking).
    [[nodiscard]] FaultPlan without(std::size_t index) const;
};

/// Applies a FaultPlan to a live scenario. Construct with the scenario's
/// kernel and bus, attach the devices the plan may target, then arm()
/// before running. Events targeting unattached devices are skipped (and
/// counted) rather than failing — a shrunk plan stays valid even if the
/// scenario variant lacks a device.
class FaultInjector {
public:
    /// Every armed fault records a kFaultInject event at its window
    /// start into \p events.
    FaultInjector(mcps::sim::Simulation& sim, net::Bus& bus,
                  mcps::obs::EventLog& events);

    void attach_oximeter(devices::PulseOximeter& d) { oximeter_ = &d; }
    void attach_capnometer(devices::Capnometer& d) { capnometer_ = &d; }
    /// Endpoint name of the pump (for kPumpCmdLoss).
    void set_pump_endpoint(std::string name) { pump_endpoint_ = std::move(name); }

    /// Schedule/apply every event. Call once, before the run begins.
    /// \throws std::invalid_argument, arming nothing, if any event's
    ///   magnitude is outside its kind's domain (magnitude_in_domain).
    void arm(const FaultPlan& plan);

    [[nodiscard]] std::size_t armed() const noexcept { return armed_; }
    [[nodiscard]] std::size_t skipped() const noexcept { return skipped_; }

private:
    void apply(const FaultEvent& e);
    /// Temporarily mutate an endpoint's channel parameters for a window.
    void window_burst(const FaultEvent& e,
                      void (*mutate)(net::ChannelParameters&, double));

    mcps::sim::Simulation& sim_;
    net::Bus& bus_;
    devices::PulseOximeter* oximeter_ = nullptr;
    devices::Capnometer* capnometer_ = nullptr;
    std::string pump_endpoint_ = "pump1";
    mcps::obs::EventLog& events_;
    std::size_t armed_ = 0;
    std::size_t skipped_ = 0;
};

}  // namespace mcps::testkit
