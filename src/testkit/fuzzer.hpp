/// \file fuzzer.hpp
/// \brief The scenario-fuzzing loop: generate, run, check, shrink, save.
///
/// Drives N scenarios from a ScenarioGenerator through the instrumented
/// runners. Every scenario whose run violates an invariant is captured as
/// a Repro, greedily shrunk to a minimal fault plan, verified to replay
/// byte-identically, and written to the repro directory. The loop itself
/// is deterministic: the same (seed, scenarios, options) always yields
/// the same outcome, files and log, for any worker count.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "replay.hpp"

namespace mcps::testkit {

struct FuzzOptions {
    std::uint64_t seed = 42;
    std::uint64_t scenarios = 200;
    double fault_intensity = 1.0;
    /// Fraction of indices routed to the x-ray workload.
    double xray_fraction = 0.15;
    /// Use the weakened-interlock fixture instead of the safe envelope.
    bool weakened = false;
    /// Where failing repro files land ("" = don't write files).
    std::string repro_dir;
    bool shrink = true;
    /// Progress/diagnostic sink ("" lines are never sent). Null = silent.
    std::function<void(const std::string&)> log;
};

/// One failing scenario, post-shrink, with its replay verification.
struct FuzzFailure {
    Repro repro;               ///< shrunk (if enabled), fingerprint pinned
    std::vector<Violation> violations;  ///< from the canonical shrunk run
    std::string repro_path;    ///< "" if no repro_dir was configured
    bool replay_byte_identical = false;
    std::size_t original_fault_events = 0;
    std::size_t shrink_runs = 0;
};

struct FuzzOutcome {
    std::uint64_t scenarios_run = 0;
    std::uint64_t pca_runs = 0;
    std::uint64_t xray_runs = 0;
    std::vector<FuzzFailure> failures;

    [[nodiscard]] bool clean() const noexcept { return failures.empty(); }
};

/// Run the fuzz loop over \p jobs worker threads. Scenarios run in
/// fixed windows of indices: each window's runs go through
/// sim::parallel_map, then its failures are captured (shrunk, replayed,
/// saved and logged) in index order on the calling thread. So the
/// outcome, the repro files and the log lines are the same for any
/// \p jobs, and memory stays bounded by one window.
///
/// Never throws on invariant violations — they are data in the outcome;
/// throws only on internal errors (e.g. an unwritable repro directory).
[[nodiscard]] FuzzOutcome run_fuzz(const FuzzOptions& opts,
                                   const InvariantChecker& checker,
                                   unsigned jobs = 1);

/// Convenience: run_fuzz with InvariantChecker::with_defaults(), serially.
[[nodiscard]] FuzzOutcome run_fuzz(const FuzzOptions& opts);

}  // namespace mcps::testkit
