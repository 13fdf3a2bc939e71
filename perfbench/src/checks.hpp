/// \file checks.hpp
/// \brief Known-answer checks and the generated inputs shared by
/// workloads.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace perfbench {

/// Run every pinned preset at minutes=1 and compare fingerprint and
/// outcome digest with tests/support/pinned_presets.hpp. Returns the
/// failures (empty when all pins hold).
[[nodiscard]] std::vector<std::string> check_pins();

/// Deterministic 64-bit mix of the workload seed and a stream index; the
/// only source of generated inputs.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t workload_seed,
                                        std::uint64_t stream,
                                        std::uint64_t index);

/// A registry preset's default spec with a generated seed and, when
/// \p minutes is non-zero, a fixed duration.
[[nodiscard]] mcps::scenario::ScenarioSpec preset_spec(
    const std::string& preset, std::uint64_t seed, std::uint64_t minutes = 0);

/// Simulated patient-seconds a registry spec covers.
[[nodiscard]] double patient_seconds(const mcps::scenario::ScenarioSpec& spec);

}  // namespace perfbench
