/// \file presets.hpp
/// \brief Canonical scenario configurations and outcome extraction.
///
/// These presets are THE library defaults: the golden traces
/// (tests/golden), the `mcps trace` CLI, the registry's built-in
/// scenarios, the benches and the examples all start from the same
/// functions, so a default can no longer drift between consumers (the
/// drift-regression test in tests/scenario asserts the golden presets
/// byte-match the registry's output). Consumers that sweep a parameter
/// take a preset and adjust the swept field; consumers that run a named
/// scenario end-to-end go through the registry instead (registry.hpp).

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pca_scenario.hpp"
#include "core/xray_scenario.hpp"
#include "hospital/hospital_engine.hpp"

namespace mcps::scenario {

/// The golden-trace PCA preset (scenario name "pca"): a high-risk
/// patient under PCA-by-proxy pressing with the default dual-sensor
/// interlock — the run exercises the interlock trip/resume path.
[[nodiscard]] core::PcaScenarioConfig canonical_pca(
    std::uint64_t seed, mcps::sim::SimDuration duration);

/// Open-loop baseline ("pca-open"): an opioid-sensitive patient under
/// proxy pressing with NO interlock — the hazard the closed loop exists
/// to remove.
[[nodiscard]] core::PcaScenarioConfig open_loop_pca(
    std::uint64_t seed, mcps::sim::SimDuration duration);

/// Alarm-only ward shift ("smart-alarm"): a typical adult under normal
/// demand, no interlock, threshold monitor + fused smart alarm engaged,
/// ward-grade oximeter motion artifacts.
[[nodiscard]] core::PcaScenarioConfig smart_alarm_shift(
    std::uint64_t seed, mcps::sim::SimDuration duration);

/// The golden-trace X-ray/ventilator preset ("xray"): automated ICE
/// coordination, one procedure per 3-minute gap (at least one).
[[nodiscard]] core::XrayScenarioConfig canonical_xray(
    std::uint64_t seed, std::uint64_t minutes);

/// Manual-coordination baseline ("xray-manual"): the typical-sloppiness
/// human operator from experiment E4a.
[[nodiscard]] core::XrayScenarioConfig manual_xray(std::uint64_t seed,
                                                   std::uint64_t minutes);

/// The ward's smart-alarm overlay: bedside monitoring + fused alarm
/// always on, oximeter suffering at least ward-grade motion artifacts.
/// Shared by the ward engine's alarm_ward workload and the registry's
/// "smart-alarm" scenario so the two can never diverge.
void apply_alarm_ward_overlay(core::PcaScenarioConfig& cfg);

/// Flat outcome digest of a PCA-family run (deterministic key order).
/// Optionals are encoded as -1 when absent; booleans as 0/1.
[[nodiscard]] std::vector<std::pair<std::string, double>> pca_outcome(
    const core::PcaScenarioResult& r);

/// Flat outcome digest of an X-ray/ventilator run.
[[nodiscard]] std::vector<std::pair<std::string, double>> xray_outcome(
    const core::XrayScenarioResult& r);

/// The hospital-scale preset ("hospital"): 2000 concurrent patients in
/// 20 wards (one ICE bus + 4 nurses each), realistic mixed cohort,
/// pump-local SpO2 interlock, no storm.
[[nodiscard]] hospital::HospitalConfig canonical_hospital(
    std::uint64_t seed, mcps::sim::SimDuration duration);

/// The small hospital preset ("hospital-small"): 96 patients in 4
/// wards, 2 nurses each, a deliberately narrow bus (16 msgs/tick) so
/// contention effects show up at smoke-test scale.
[[nodiscard]] hospital::HospitalConfig small_hospital(
    std::uint64_t seed, mcps::sim::SimDuration duration);

/// Flat outcome digest of a hospital run (deterministic key order;
/// wall-clock fields excluded; empty-histogram percentiles as -1).
[[nodiscard]] std::vector<std::pair<std::string, double>> hospital_outcome(
    const hospital::HospitalReport& r);

}  // namespace mcps::scenario
