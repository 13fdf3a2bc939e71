/// \file replay.hpp
/// \brief Compact repro files, byte-identical replay, greedy shrinking.
///
/// A failing fuzz run is fully described by (workload, master seed,
/// scenario index, weakened flag, fault plan): the ScenarioGenerator
/// deterministically rebuilds the scenario from the first four and the
/// injector re-applies the fifth, so the repro file stays a few hundred
/// bytes no matter how large the run was. A hospital repro has no fault
/// plan: its spec is a pure function of (seed, index, weakened), where
/// weakened selects the interlock-off storm hazard. Replaying verifies
/// byte-identity through the run fingerprint. Shrinking greedily removes
/// fault events while the violation persists, leaving a minimal
/// counterexample.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "runner.hpp"
#include "scenario_gen.hpp"

namespace mcps::testkit {

/// Everything needed to re-run one failing scenario.
struct Repro {
    WorkloadKind kind = WorkloadKind::kPca;
    std::uint64_t seed = 0;
    std::uint64_t index = 0;
    /// Came from the weakened-interlock fixture (pca) or the
    /// interlock-off storm hazard (hospital).
    bool weakened = false;
    FaultPlan faults;  ///< explicit so shrinking can edit it (pca only)
    /// Fingerprint of the canonical violating run (0 = unknown).
    std::uint64_t fingerprint = 0;
};

/// Text round-trip (the on-disk format; one "fault ..." line per event).
[[nodiscard]] std::string to_text(const Repro& r);
/// \throws std::runtime_error on a malformed or wrong-version file.
[[nodiscard]] Repro repro_from_text(const std::string& text);

/// Write \p text to \p path, then close the file and check it, so a
/// full disk throws instead of leaving a truncated file behind.
/// \throws std::runtime_error naming \p path.
void write_text_file(const std::string& path, std::string_view text);

/// write_text_file of to_text(\p r).
void save_repro(const std::string& path, const Repro& r);
/// \throws std::runtime_error if the file is unreadable or malformed.
[[nodiscard]] Repro load_repro(const std::string& path);

struct ReplayResult {
    std::vector<Violation> violations;
    std::uint64_t fingerprint = 0;
    /// True iff the repro carried a fingerprint and this run matched it.
    bool byte_identical = false;
};

/// Re-run the repro's scenario with its fault plan.
[[nodiscard]] ReplayResult replay(const Repro& r,
                                  const InvariantChecker& checker);

/// Greedy shrink: repeatedly drop single fault events while the run still
/// violates some invariant. Returns the minimal repro with its
/// fingerprint updated to the shrunk run. \p runs (optional) reports how
/// many candidate runs were executed.
[[nodiscard]] Repro shrink(const Repro& r, const InvariantChecker& checker,
                           std::size_t* runs = nullptr);

}  // namespace mcps::testkit
