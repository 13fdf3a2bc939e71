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
/// definition of "the same run".

#pragma once

#include "fault_plan.hpp"
#include "invariants.hpp"

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

/// Fold a run into 64 bits (order- and value-exact): every sample of
/// every signal in \p trace, then the events of \p log from index
/// \p first_event on (the run's own; see PcaScenario::first_event),
/// skipping the bus kinds. Bus events are recorded only into a
/// caller's log, so skipping them makes the fingerprint the same with
/// events on or off.
[[nodiscard]] std::uint64_t trace_fingerprint(
    const mcps::sim::TraceRecorder& trace, const mcps::obs::EventLog& log,
    std::size_t first_event);

/// Fold an x-ray result into 64 bits (the x-ray harness doesn't expose
/// its trace, so the result fields ARE the byte-identity surface).
[[nodiscard]] std::uint64_t xray_result_fingerprint(
    const core::XrayScenarioResult& result);

/// Run one PCA scenario with faults injected and invariants checked.
[[nodiscard]] PcaRunOutcome run_instrumented_pca(
    const core::PcaScenarioConfig& cfg, const FaultPlan& faults,
    const InvariantChecker& checker);

/// Run one x-ray scenario and check its result-level invariants.
[[nodiscard]] XrayRunOutcome run_instrumented_xray(
    const core::XrayScenarioConfig& cfg, InvariantTolerances tol = {});

}  // namespace mcps::testkit
