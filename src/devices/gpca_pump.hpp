/// \file gpca_pump.hpp
/// \brief Generic PCA infusion pump model (GPCA-style state machine).
///
/// The DAC'10 paper's "high-confidence development" thread centers on the
/// Generic Patient-Controlled Analgesia (GPCA) pump reference model: a
/// hierarchical state machine whose safety requirements (lockout
/// enforcement, hourly dose cap, alarm-triggered infusion stop) can be
/// model-checked and then traced to code. This class is that reference
/// model implemented as an executable device:
///
///   Off -> SelfTest -> Idle -> Infusing <-> BolusActive
///                        ^        |   \------> Paused
///                        |        v
///                        +----- Alarm (critical alarms latch; infusion
///                                      stopped until operator clears)
///
/// Safety requirements enforced (tested in tests/test_gpca_pump.cpp):
///  R1 A bolus is never delivered during the lockout interval.
///  R2 Total drug delivered in any sliding 60-minute window never exceeds
///     the prescribed hourly cap (basal is throttled before violating it).
///  R3 A critical alarm stops all drug delivery within one tick.
///  R4 A remote stop command stops all delivery within one tick and is
///     acknowledged.
///  R5 The pump never delivers from an empty reservoir.
///  R6 Bolus requests while paused/alarmed/stopped are denied, not queued.

#pragma once

#include <deque>
#include <optional>

#include "device.hpp"
#include "physio/patient.hpp"
#include "physio/units.hpp"

namespace mcps::devices {

/// The clinician-programmed regimen.
struct Prescription {
    physio::InfusionRate basal = physio::InfusionRate::mg_per_hour(0.5);
    physio::Dose bolus_dose = physio::Dose::mg(0.5);
    mcps::sim::SimDuration lockout = mcps::sim::SimDuration::minutes(8);
    physio::Dose max_hourly = physio::Dose::mg(6.0);
    double bolus_rate_mg_per_min = 2.0;  ///< delivery speed of a bolus

    /// \throws std::invalid_argument on non-positive or inconsistent values.
    void validate() const;
};

/// Pump mechanical/behavioural configuration.
struct PumpConfig {
    mcps::sim::SimDuration tick = mcps::sim::SimDuration::seconds(1);
    mcps::sim::SimDuration selftest_duration = mcps::sim::SimDuration::seconds(2);
    physio::Dose reservoir = physio::Dose::mg(30.0);
    mcps::sim::SimDuration status_period = mcps::sim::SimDuration::seconds(5);
};

/// Pump operating states (GPCA top level).
enum class PumpState {
    kOff,
    kSelfTest,
    kIdle,
    kInfusing,     ///< basal running, no bolus in progress
    kBolusActive,  ///< bolus being delivered (basal continues)
    kPaused,       ///< operator/remote pause; no delivery
    kAlarm,        ///< critical alarm latched; no delivery
};

[[nodiscard]] std::string_view to_string(PumpState s) noexcept;

/// Alarm conditions the pump can raise.
enum class PumpAlarm {
    kNone,
    kOcclusion,
    kAirInLine,
    kReservoirEmpty,
    kHourlyLimit,  ///< advisory: cap reached, boluses denied
};

[[nodiscard]] std::string_view to_string(PumpAlarm a) noexcept;

/// Counters for experiment output.
struct PumpStats {
    std::uint64_t boluses_requested = 0;
    std::uint64_t boluses_delivered = 0;   ///< started delivery
    std::uint64_t denied_lockout = 0;
    std::uint64_t denied_hourly = 0;
    std::uint64_t denied_state = 0;        ///< paused/alarm/idle denials
    std::uint64_t remote_stops = 0;
    physio::Dose total_delivered;
};

/// The executable GPCA pump.
///
/// Drug reaches the patient as per-tick micro-boluses computed from the
/// basal rate plus any active bolus; the pump is the sole drug source for
/// its patient. Remote control arrives on topic "cmd/<name>" with actions
/// "stop_infusion" | "pause" | "resume" | "bolus_request"; every command
/// is acknowledged on "ack/<name>".
class GpcaPump : public Device {
public:
    GpcaPump(DeviceContext ctx, std::string name, physio::Patient& patient,
             Prescription rx, PumpConfig cfg = {});

    /// Patient presses the demand button. Applies R1/R2/R6 gating.
    /// Returns true if a bolus starts.
    bool press_button();

    /// Operator interactions.
    void operator_pause();
    void operator_resume();
    /// Clear a latched alarm; pump returns to Idle (operator must resume).
    void clear_alarm();

    /// Inject a hardware fault (test/E8 hook).
    void inject_fault(PumpAlarm fault);

    [[nodiscard]] PumpState state() const noexcept { return state_; }
    [[nodiscard]] PumpAlarm alarm() const noexcept { return alarm_; }
    [[nodiscard]] const PumpStats& stats() const noexcept { return stats_; }
    [[nodiscard]] const Prescription& prescription() const noexcept {
        return rx_;
    }
    [[nodiscard]] physio::Dose reservoir_remaining() const noexcept {
        return reservoir_;
    }
    /// Drug delivered within the trailing 60-minute window.
    [[nodiscard]] physio::Dose delivered_last_hour() const;
    /// True while any drug is flowing (basal or bolus).
    [[nodiscard]] bool delivering() const noexcept {
        return state_ == PumpState::kInfusing || state_ == PumpState::kBolusActive;
    }
    /// Time at which the lockout window ends (never() if no bolus yet).
    [[nodiscard]] mcps::sim::SimTime lockout_until() const noexcept {
        return lockout_until_;
    }

    /// Reprogram the prescription; only allowed in Idle/Paused.
    void set_prescription(const Prescription& rx);

protected:
    void on_start() override;
    void on_stop() override;

private:
    void tick();
    void enter_state(PumpState s, const std::string& why);
    void raise_alarm(PumpAlarm a);
    void deliver(physio::Dose d);
    void prune_window();
    void handle_command(const mcps::net::Message& m);

    physio::Patient& patient_;
    Prescription rx_;
    PumpConfig cfg_;

    PumpState state_ = PumpState::kOff;
    PumpAlarm alarm_ = PumpAlarm::kNone;
    physio::Dose reservoir_;
    physio::Dose bolus_remaining_;
    mcps::sim::SimTime lockout_until_ = mcps::sim::SimTime::origin();
    std::deque<std::pair<mcps::sim::SimTime, double>> window_mg_;
    double window_total_mg_ = 0.0;
    /// "pump/<name>/window_mg", resolved on the first delivering tick
    /// (see TraceRecorder::signal).
    mcps::sim::Signal* window_signal_ = nullptr;
    PumpStats stats_;
    mcps::sim::EventHandle tick_handle_;
    mcps::sim::EventHandle status_handle_;
    mcps::net::SubscriptionId cmd_sub_;
};

}  // namespace mcps::devices
