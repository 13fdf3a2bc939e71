/// \file xray_scenario.hpp
/// \brief Scenario harness for the X-ray / ventilator sync experiment E4.
///
/// Runs N imaging procedures on a ventilated patient, either through the
/// automated ICE coordination app or through the manual (human) baseline,
/// and reports image success rate, imposed apnea, and retry counts.

#pragma once

#include <optional>

#include "xray_vent_app.hpp"
#include "net/channel.hpp"
#include "obs/event_log.hpp"
#include "physio/population.hpp"

namespace mcps::core {

enum class CoordinationMode { kManual, kAutomated };

[[nodiscard]] std::string_view to_string(CoordinationMode m) noexcept;

struct XrayScenarioConfig {
    std::uint64_t seed = 42;
    CoordinationMode mode = CoordinationMode::kAutomated;
    std::size_t procedures = 20;
    /// Gap between consecutive procedures.
    mcps::sim::SimDuration procedure_gap = mcps::sim::SimDuration::minutes(3);

    physio::PatientParameters patient =
        physio::nominal_parameters(physio::Archetype::kTypicalAdult);
    devices::VentilatorConfig ventilator{};
    devices::XRayConfig xray{};
    XrayVentConfig sync{};
    ManualCoordinatorConfig manual{};
    net::ChannelParameters channel{};

    /// Optional caller-owned event log; must outlive the run when set.
    /// The devices, supervisor and app record into it, and so does the
    /// bus. When null, the run records into a log of its own and the
    /// bus records nothing.
    mcps::obs::EventLog* events = nullptr;
};

struct XrayScenarioResult {
    std::size_t procedures = 0;
    std::size_t completed = 0;
    std::size_t sharp_images = 0;
    double sharp_rate = 0.0;
    double mean_apnea_s = 0.0;
    double max_apnea_s = 0.0;
    std::uint64_t total_retries = 0;
    std::uint64_t safety_auto_resumes = 0;
    /// Ground-truth worst SpO2 across the whole run.
    double min_spo2 = 100.0;
};

[[nodiscard]] XrayScenarioResult run_xray_scenario(
    const XrayScenarioConfig& cfg);

/// Fold an x-ray result into 64 bits (the x-ray harness doesn't expose
/// its trace, so the result fields ARE the byte-identity surface).
[[nodiscard]] std::uint64_t fingerprint(const XrayScenarioResult& result);

}  // namespace mcps::core
