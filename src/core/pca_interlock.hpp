/// \file pca_interlock.hpp
/// \brief The PCA closed-loop safety interlock — the paper's flagship app.
///
/// "A PCA infusion pump that can be stopped by a supervisor when pulse
/// oximetry and capnometry indicate respiratory depression" is the
/// canonical closed-loop MCPS in the DAC'10 vision. This VMD app
/// implements it:
///
///  * subscribes to SpO2 (and in dual-sensor mode EtCO2 + respiratory
///    rate) from the bus,
///  * evaluates a persistence-filtered trigger condition every tick,
///  * on trigger, commands the pump to stop and retries until the pump
///    acknowledges (commands ride the same lossy network as the data),
///  * treats *sensor silence* according to a configurable policy:
///    fail-safe (stop the pump: no data means no safe dosing) or
///    fail-operational (keep going on the last value),
///  * optionally auto-resumes basal infusion once vitals have recovered
///    and held normal for a configurable period.
///
/// The single- vs dual-sensor trigger and fail-safe vs fail-operational
/// policies are the ablations of experiments E1/E2/E8.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "devices/device.hpp"
#include "ice/app.hpp"
#include "vital_metric.hpp"

namespace mcps::core {

/// Which sensors gate the trigger condition.
enum class InterlockMode {
    kSpO2Only,    ///< single-sensor: pulse oximetry alone
    kDualSensor,  ///< SpO2 + capnometry (EtCO2, respiratory rate)
};

[[nodiscard]] std::string_view to_string(InterlockMode m) noexcept;

/// Reaction to loss of sensor data (staleness beyond the limit).
enum class DataLossPolicy {
    kFailSafe,         ///< stop the pump until data returns
    kFailOperational,  ///< continue on last known values
};

[[nodiscard]] std::string_view to_string(DataLossPolicy p) noexcept;

struct InterlockConfig {
    std::string bed = "bed1";
    InterlockMode mode = InterlockMode::kDualSensor;
    DataLossPolicy data_loss = DataLossPolicy::kFailSafe;

    double spo2_stop = 90.0;   ///< SpO2 below this triggers a stop
    double spo2_warn = 93.0;   ///< warning band used for cross-checks
    double etco2_low = 12.0;   ///< loss of waveform (apnea indicator)
    double etco2_high = 60.0;  ///< hypoventilation indicator
    double rr_low = 8.0;       ///< bradypnea indicator

    /// Trigger condition must hold this long before a stop is issued
    /// (rejects single-sample noise).
    mcps::sim::SimDuration persistence = mcps::sim::SimDuration::seconds(10);
    /// Evaluation tick.
    mcps::sim::SimDuration check_period = mcps::sim::SimDuration::seconds(1);
    /// Data older than this counts as lost.
    mcps::sim::SimDuration staleness_limit = mcps::sim::SimDuration::seconds(12);
    /// Unacknowledged stop commands are re-sent at this interval.
    mcps::sim::SimDuration command_retry = mcps::sim::SimDuration::seconds(2);

    bool auto_resume = true;
    /// Vitals must be normal this long before auto-resume.
    mcps::sim::SimDuration recovery_hold = mcps::sim::SimDuration::minutes(5);
};

/// Interlock decision state.
enum class InterlockState {
    kMonitoring,  ///< vitals acceptable, pump permitted to run
    kTriggered,   ///< stop commanded, awaiting/holding pump stopped
    kDataLoss,    ///< stopped due to sensor silence (fail-safe only)
};

[[nodiscard]] std::string_view to_string(InterlockState s) noexcept;

/// Counters + latency for the experiment tables.
struct InterlockStats {
    std::uint64_t stops_issued = 0;       ///< distinct stop episodes
    std::uint64_t stop_commands_sent = 0; ///< including retries
    std::uint64_t data_loss_stops = 0;
    std::uint64_t resumes_issued = 0;
    std::uint64_t acks_received = 0;
    /// Trigger-condition onset to pump ack, last episode (ms).
    std::optional<double> last_stop_latency_ms;
};

/// The interlock app. Binding order: pump, oximeter[, capnometer].
class PcaInterlock : public ice::VmdApp {
public:
    PcaInterlock(devices::DeviceContext ctx, std::string name,
                 InterlockConfig cfg);

    [[nodiscard]] std::vector<ice::Requirement> requirements() const override;
    void bind(const std::vector<ice::DeviceDescriptor>& devices) override;
    void on_app_start() override;
    void on_app_stop() override;
    void on_device_lost(const std::string& device_name) override;
    void on_device_recovered(const std::string& device_name) override;

    [[nodiscard]] InterlockState state() const noexcept { return state_; }
    [[nodiscard]] const InterlockStats& stats() const noexcept { return stats_; }
    [[nodiscard]] const InterlockConfig& config() const noexcept { return cfg_; }
    /// Name of the pump this app controls (empty before bind()).
    [[nodiscard]] const std::string& pump_name() const noexcept {
        return pump_name_;
    }

private:
    void on_vital(const mcps::net::Message& m);
    void on_ack(const mcps::net::Message& m);
    void check();
    [[nodiscard]] bool metric_fresh(VitalMetric metric) const;
    /// Latest value; nullopt until the metric is first seen.
    [[nodiscard]] std::optional<double> metric_value(VitalMetric metric) const;
    /// True if the trigger condition (respiratory depression) holds now.
    [[nodiscard]] bool condition_now() const;
    /// True if all gating vitals are in the normal band now.
    [[nodiscard]] bool vitals_normal_now() const;
    void issue_stop(const std::string& why);
    void issue_resume();
    void send_pending_command();

    devices::DeviceContext ctx_;
    InterlockConfig cfg_;
    std::string pump_name_;
    std::string oximeter_name_;
    std::string capnometer_name_;

    InterlockState state_ = InterlockState::kMonitoring;
    VitalTable vitals_;
    mcps::sim::SimTime condition_since_ = mcps::sim::SimTime::never();
    mcps::sim::SimTime normal_since_ = mcps::sim::SimTime::never();
    mcps::sim::SimTime trigger_onset_ = mcps::sim::SimTime::never();
    enum class PendingCmd { kNone, kStop, kResume };
    PendingCmd pending_cmd_ = PendingCmd::kNone;
    std::uint64_t pending_command_seq_ = 0;
    std::uint64_t next_command_seq_ = 1;
    bool device_lost_active_ = false;

    InterlockStats stats_;
    mcps::sim::EventHandle check_handle_;
    mcps::sim::EventHandle retry_handle_;
    std::vector<mcps::net::SubscriptionId> subs_;
};

}  // namespace mcps::core
