/// \file ward_config.hpp
/// \brief Configuration for a ward-scale parallel scenario campaign.

#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mcps::ward {

/// Error thrown on malformed ward configuration (bad mix spec, zero
/// weights, ...).
class WardConfigError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Relative weights of the ward workloads. Weights are normalized
/// before use; they need not sum to 1.
struct ScenarioMix {
    double pca = 0.70;         ///< PCA closed-loop (interlock active)
    double xray = 0.15;        ///< X-ray/ventilator sync procedures
    double alarm_ward = 0.15;  ///< smart-alarm ward shift (monitor + fusion)
    /// Embedded smoke-sized hospital population runs (hospital-small
    /// preset, single-threaded per run). Off by default so the classic
    /// three-workload campaigns keep their exact kind sequence.
    double hospital = 0.0;

    /// Normalized copy. \throws WardConfigError if any weight is negative
    /// or all are zero.
    [[nodiscard]] ScenarioMix normalized() const;

    friend bool operator==(const ScenarioMix&, const ScenarioMix&) = default;
};

/// Parse "pca=0.7,xray=0.15,ward=0.15" (any subset; omitted keys are 0).
/// \throws WardConfigError on unknown keys or malformed numbers.
[[nodiscard]] ScenarioMix parse_mix(std::string_view spec);

/// Canonical "pca=..,xray=..,ward=.." rendering of the normalized mix.
[[nodiscard]] std::string to_string(const ScenarioMix& mix);

/// Everything a ward campaign needs. Scenario content is a pure function
/// of (seed, scenario index, mix, fault_intensity); `jobs` and `shards`
/// only decide how the work is spread, never what it computes — except
/// that `shards` fixes the reduction tree for the merged floating-point
/// statistics, so it deliberately does NOT default from the job count.
struct WardConfig {
    std::uint64_t seed = 42;
    std::size_t patients = 64;   ///< scenarios to run (one per patient slot)
    unsigned jobs = 1;           ///< worker threads
    std::size_t shards = 64;     ///< deterministic reduction shards
    ScenarioMix mix{};
    /// Scales the adversarial fault plans injected into PCA-family
    /// scenarios (0 = none, 1 = the fuzzer's default mix; at most
    /// testkit::kMaxFaultIntensity).
    double fault_intensity = 0.0;

    /// \throws WardConfigError on zero patients/shards, a fault
    /// intensity that is not a finite number in [0,
    /// testkit::kMaxFaultIntensity], or a bad mix.
    void validate() const;
};

}  // namespace mcps::ward
