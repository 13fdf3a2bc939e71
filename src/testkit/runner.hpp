/// \file runner.hpp
/// \brief Instrumented end-to-end scenario execution for the fuzzer.
///
/// Wraps the core scenario harnesses with the testkit's observation
/// plumbing: a fault injector armed from a FaultPlan, an ideal-link alarm
/// probe (so "was the alarm delivered" is decidable independently of the
/// lossy links under test), extra 1 Hz ground-truth recorders
/// (testkit/pump_hourly_mg, testkit/pump_reservoir_mg,
/// testkit/oxi_dropout), invariant checking, and a 64-bit fingerprint of
/// the run. Two runs are byte-identical iff their fingerprints match:
/// the fingerprint folds every signal sample and every event the run
/// recorded apart from bus traffic, so it is the replay facility's
/// definition of "the same run". The hospital family runs through the
/// scenario registry instead; its fingerprint is the report's.

#pragma once

#include <string_view>

#include "fault_plan.hpp"
#include "invariants.hpp"
#include "scenario/spec.hpp"

namespace mcps::testkit {

/// Outcome of one instrumented PCA run.
struct PcaRunOutcome {
    core::PcaScenarioResult result;
    std::vector<Violation> violations;
    std::uint64_t fingerprint = 0;
    std::uint64_t probe_smart_alarms = 0;
    std::uint64_t probe_monitor_alarms = 0;
};

/// Outcome of one x-ray run (result-level invariants only).
struct XrayRunOutcome {
    core::XrayScenarioResult result;
    std::vector<Violation> violations;
    std::uint64_t fingerprint = 0;  ///< folded from the result fields
};

/// Outcome of one checked hospital-family run.
struct HospitalRunOutcome {
    std::vector<Violation> violations;
    std::uint64_t fingerprint = 0;  ///< the report's; 0 if it did not run
};

/// The violation an interlock-off storm hazard is expected to raise.
inline constexpr std::string_view kHospitalHazard = "deadline-hazard-expected";

/// Run one PCA scenario with faults injected and invariants checked.
[[nodiscard]] PcaRunOutcome run_instrumented_pca(
    const core::PcaScenarioConfig& cfg, const FaultPlan& faults,
    const InvariantChecker& checker);

/// Run one x-ray scenario and check its result-level invariants.
[[nodiscard]] XrayRunOutcome run_instrumented_xray(
    const core::XrayScenarioConfig& cfg, InvariantTolerances tol = {});

/// Resolve one hospital spec as the scenario registry does, run it and
/// check it:
///   resolves-and-runs       the spec resolves and runs;
///   jobs-invariant-report   the same spec at jobs=1 reproduces the
///                           fingerprint and every outcome metric;
///   deadline-safe-envelope  no deadline violations — or, with
///                           \p hazard (interlock off plus a storm,
///                           outside the envelope), the violations are
///                           reported as the expected kHospitalHazard.
/// A deadline violation's at_s is the earliest violation's simulated
/// time over all wards; the other two have none and carry 0.
[[nodiscard]] HospitalRunOutcome check_hospital(
    const scenario::ScenarioSpec& spec, bool hazard);

}  // namespace mcps::testkit
