/// \file hospital_fuzz.hpp
/// \brief Hospital-family fuzz campaign: randomized cohorts and knobs
/// over the claimed-safe envelope.
///
/// The PR-1 fuzzer (testkit/fuzzer.hpp) mutates *fault plans* against a
/// fixed pca/xray scenario; the hospital family has no fault plan — its
/// hazard surface is the knob space itself (cohort size, sharding,
/// monitor period, demand, storms). So the hospital campaign samples
/// whole ScenarioSpecs instead:
///
///   safe mode    every knob drawn from its claimed-safe envelope
///                (interlock=local, monitor-period-s within the TA5
///                envelope, arbitrary storms). Invariants checked per
///                spec: the run resolves, deadline_violations == 0,
///                the report is byte-identical when re-run and when the
///                jobs knob changes.
///   hazard mode  interlock=off plus a synchronized storm — outside the
///                envelope, so deadline violations are EXPECTED. Each
///                violating spec gets a repro file that must replay
///                byte-identically.
///
/// A repro file is a text artifact embedding the spec line verbatim
/// (spec.hpp's round-trip guarantee makes it self-contained):
///
///   # mcps_fuzz --hospital repro
///   # invariant: deadline-safe-envelope: 3 deadline violations ...
///   spec: hospital-small seed=7 minutes=3 patients=40 ...
///   fingerprint: 0x1234567890abcdef
///
/// Lives in mcps_ward (not mcps_hospital) because sampling needs the
/// scenario registry, and mcps_scenario already links mcps_hospital.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace mcps::ward {

struct HospitalFuzzOptions {
    std::size_t scenarios = 50;
    std::uint64_t seed = 42;
    /// Sample outside the claimed-safe envelope (interlock=off + storm)
    /// and expect deadline violations instead of forbidding them.
    bool hazard = false;
    /// Directory for repro files; empty writes none.
    std::string repro_dir;
    /// Progress sink; null is silent.
    std::function<void(const std::string&)> log;
};

/// One spec that broke an invariant (safe mode) or whose expected
/// violation failed to replay (hazard mode).
struct HospitalFuzzFailure {
    scenario::ScenarioSpec spec;
    std::string invariant;  ///< which check failed
    std::string detail;     ///< human-readable specifics
    std::string repro_path; ///< "" when repro_dir is empty
    bool replay_byte_identical = false;
};

struct HospitalFuzzOutcome {
    std::size_t scenarios_run = 0;
    /// Specs that produced deadline violations (hazard mode expects
    /// this to be non-zero; safe mode turns each into a failure).
    std::size_t violating_specs = 0;
    std::vector<HospitalFuzzFailure> failures;

    [[nodiscard]] bool clean() const { return failures.empty(); }
};

[[nodiscard]] HospitalFuzzOutcome run_hospital_fuzz(
    const HospitalFuzzOptions& opts);

/// Outcome of replaying one hospital repro file.
struct HospitalReplayResult {
    scenario::ScenarioSpec spec;
    std::string invariant;  ///< invariant line recorded in the file
    std::uint64_t expected_fingerprint = 0;
    std::uint64_t fingerprint = 0;
    bool byte_identical = false;
    double deadline_violations = 0.0;
};

/// Parse and re-run a repro file written by run_hospital_fuzz. The
/// parse is strict: the header line first, then each of `spec`,
/// `fingerprint` (a whole 0x-prefixed hex token) and `# invariant` at
/// most once, and no other line.
/// \throws std::runtime_error when the file is missing, or
///   "malformed hospital repro <path>: ..." when it is malformed.
[[nodiscard]] HospitalReplayResult replay_hospital_repro(
    const std::string& path);

}  // namespace mcps::ward
