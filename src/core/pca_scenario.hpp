/// \file pca_scenario.hpp
/// \brief End-to-end PCA scenario harness: one call assembles the whole
/// MCPS (patient + pump + sensors + bus + supervisor + interlock),
/// runs it, and extracts the safety metrics the experiments report.
///
/// All of E1 (closed vs open loop), E2 (network sweeps) and E8 (sensor
/// fault injection) are parameterizations of this harness, as are the
/// integration tests and the quickstart example.

#pragma once

#include <functional>
#include <optional>

#include "devices/capnometer.hpp"
#include "devices/gpca_pump.hpp"
#include "devices/monitor.hpp"
#include "devices/pulse_oximeter.hpp"
#include "net/channel.hpp"
#include "obs/event_log.hpp"
#include "pca_interlock.hpp"
#include "physio/pca_demand.hpp"
#include "physio/population.hpp"
#include "sim/trace.hpp"
#include "smart_alarm.hpp"

namespace mcps::core {

/// How the patient's bolus demands are generated.
enum class DemandMode {
    kNormal,  ///< pain-driven, sedation-limited (PCA's intrinsic safety)
    kProxy,   ///< PCA-by-proxy: presses continue despite sedation
};

/// Everything needed to run one PCA scenario.
struct PcaScenarioConfig {
    std::uint64_t seed = 42;
    mcps::sim::SimDuration duration = mcps::sim::SimDuration::hours(4);
    /// Physiology integration step (also the demand poll interval).
    mcps::sim::SimDuration patient_step = mcps::sim::SimDuration::millis(500);

    physio::PatientParameters patient =
        physio::nominal_parameters(physio::Archetype::kTypicalAdult);
    devices::Prescription prescription{};
    physio::DemandParameters demand{};
    DemandMode demand_mode = DemandMode::kNormal;

    /// nullopt => open-loop PCA (no safety interlock) — the baseline.
    std::optional<InterlockConfig> interlock = InterlockConfig{};

    net::ChannelParameters channel{};
    devices::PulseOximeterConfig oximeter{};
    devices::CapnometerConfig capnometer{};

    bool with_monitor = false;      ///< classic threshold-alarm baseline
    bool with_smart_alarm = false;  ///< fused smart alarm
    devices::MonitorConfig monitor = devices::MonitorConfig::adult_defaults();
    SmartAlarmConfig smart_alarm{};

    /// Optional mid-run hook (fault injection etc.), called once at
    /// \p hook_at with access to the live scenario parts.
    std::function<void(class PcaScenario&)> mid_run_hook;
    mcps::sim::SimTime hook_at = mcps::sim::SimTime::never();

    /// Optional caller-owned event log; must outlive the scenario when
    /// set. The devices, supervisor and interlock record into it, and so
    /// does the bus (publish/deliver/drop). When null, the scenario
    /// records into a log of its own and the bus records nothing.
    mcps::obs::EventLog* events = nullptr;
};

/// Ground-truth safety + therapy metrics computed after the run.
struct PcaScenarioResult {
    // --- patient safety (ground truth, not sensor readings) -----------
    double min_spo2 = 100.0;
    double time_spo2_below_90_s = 0.0;
    double time_spo2_below_85_s = 0.0;
    double time_apneic_s = 0.0;
    bool severe_hypoxemia = false;  ///< true SpO2 < 85 at any instant
    /// Onset of first true desaturation below 90 (NaN if none).
    std::optional<double> hypoxia_onset_s;
    /// Onset -> pump actually stopped delivering (nullopt if never
    /// stopped, or no hypoxia occurred).
    std::optional<double> detection_latency_s;

    // --- therapy --------------------------------------------------------
    double mean_pain = 0.0;
    double total_drug_mg = 0.0;
    devices::PumpStats pump;

    // --- interlock & alarms ---------------------------------------------
    InterlockStats interlock;
    std::size_t monitor_alarm_count = 0;
    std::size_t smart_alarm_count = 0;
    std::size_t smart_critical_count = 0;

    std::uint64_t events_dispatched = 0;
};

/// The live scenario object. Construct, then run(); intermediate access
/// is provided for tests and for mid-run fault-injection hooks.
class PcaScenario {
public:
    explicit PcaScenario(PcaScenarioConfig cfg);
    ~PcaScenario();

    PcaScenario(const PcaScenario&) = delete;
    PcaScenario& operator=(const PcaScenario&) = delete;

    /// Run to completion and compute metrics.
    PcaScenarioResult run();

    // Live-part access (valid between construction and destruction).
    [[nodiscard]] mcps::sim::Simulation& simulation();
    [[nodiscard]] physio::Patient& patient();
    [[nodiscard]] devices::GpcaPump& pump();
    [[nodiscard]] devices::PulseOximeter& oximeter();
    [[nodiscard]] devices::Capnometer& capnometer();
    [[nodiscard]] net::Bus& bus();
    [[nodiscard]] mcps::sim::TraceRecorder& trace();
    /// The log this run records into (the config's, or the scenario's
    /// own). Its events from first_event() on are this run's; a shared
    /// log (ward shards) holds earlier runs before them.
    [[nodiscard]] mcps::obs::EventLog& events();
    [[nodiscard]] std::size_t first_event() const;
    /// Fold the run into 64 bits (order- and value-exact): every sample
    /// of every signal in trace(), then this run's events from
    /// first_event() on, skipping the bus kinds. Bus events are recorded
    /// only into a caller's log, so skipping them makes the fingerprint
    /// the same with events on or off. Two runs are byte-identical iff
    /// their fingerprints match.
    [[nodiscard]] std::uint64_t fingerprint() const;
    [[nodiscard]] PcaInterlock* interlock();  ///< nullptr in open loop
    [[nodiscard]] SmartAlarm* smart_alarm();  ///< nullptr if disabled
    [[nodiscard]] devices::BedsideMonitor* monitor();  ///< nullptr if disabled

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Convenience one-shot runner.
[[nodiscard]] PcaScenarioResult run_pca_scenario(const PcaScenarioConfig& cfg);

}  // namespace mcps::core
