/// \file ward_scenarios.hpp
/// \brief Per-index scenario construction for the ward engine.
///
/// Every scenario a ward runs is a pure function of (master seed,
/// scenario index): the workload kind is drawn from a per-index named
/// RngStream, and the scenario content reuses the testkit's
/// ScenarioGenerator envelope so ward campaigns exercise exactly the
/// claimed-safe configuration space the fuzzer patrols. Each scenario's
/// simulation kernel stays single-threaded; parallelism lives strictly
/// *between* scenarios.

#pragma once

#include <cstdint>

#include "testkit/testkit.hpp"
#include "ward_config.hpp"

namespace mcps::ward {

/// The ward workloads: the paper's three application scenarios plus an
/// embedded hospital-population run (PR 9).
enum class WardScenarioKind : std::uint8_t {
    kPcaClosedLoop = 0,  ///< PCA pump + safety interlock
    kXraySync = 1,       ///< X-ray/ventilator coordination
    kAlarmWard = 2,      ///< smart-alarm shift (monitor + fused alarm)
    kHospital = 3,       ///< smoke-sized hospital-small population run
};

[[nodiscard]] std::string_view to_string(WardScenarioKind k) noexcept;

/// Digest of one completed patient-scenario — everything the ward-level
/// aggregation needs, small enough to store per index.
struct ScenarioOutcome {
    WardScenarioKind kind = WardScenarioKind::kPcaClosedLoop;
    std::uint64_t fingerprint = 0;   ///< testkit trace/result fingerprint
    double drug_mg = 0.0;            ///< total opioid delivered (PCA kinds)
    double min_spo2 = 100.0;         ///< ground-truth worst saturation
    double mean_pain = 0.0;          ///< PCA kinds only
    /// Hypoxia onset -> pump stopped, seconds (< 0: no hypoxia episode).
    double detection_latency_s = -1.0;
    std::uint64_t demands_denied = 0;   ///< bolus demands the pump refused
    std::uint64_t interlock_stops = 0;  ///< distinct interlock stop episodes
    std::uint64_t monitor_alarms = 0;
    std::uint64_t smart_alarms = 0;
    std::uint64_t smart_critical = 0;
    std::uint64_t events_dispatched = 0;
    std::uint32_t violations = 0;       ///< safety-invariant violations
};

/// Builds and runs ward scenarios. Stateless beyond its config; safe to
/// share across worker threads (all methods are const and allocate their
/// own kernels).
class WardScenarioFactory {
public:
    explicit WardScenarioFactory(const WardConfig& cfg);

    /// Deterministic workload choice for an index (mix-weighted).
    [[nodiscard]] WardScenarioKind kind_of(std::uint64_t index) const;

    /// Run scenario \p index to completion on the calling thread. When
    /// \p events is non-null the scenario's structured events (bus,
    /// devices, supervisor, interlock, faults) are appended to it.
    [[nodiscard]] ScenarioOutcome run(std::uint64_t index,
                                      const testkit::InvariantChecker& checker,
                                      mcps::obs::EventLog* events =
                                          nullptr) const;

private:
    std::uint64_t seed_;
    ScenarioMix mix_;  ///< normalized
    testkit::ScenarioGenerator gen_;
};

}  // namespace mcps::ward
