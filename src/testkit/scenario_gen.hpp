/// \file scenario_gen.hpp
/// \brief Randomized scenario sampling for the fuzzer.
///
/// Every generated artifact is a pure function of (master seed, scenario
/// index): the generator draws all choices from one named RngStream per
/// scenario, so a failing run is fully identified by the (seed, index,
/// fault plan) triple in its repro file — no scenario state needs to be
/// serialized.
///
/// The sampled configuration space is the *claimed-safe* envelope: only
/// parameter combinations the framework promises to keep safe (fail-safe
/// data-loss policy, stop thresholds in the clinical band, bounded fault
/// windows). The weakened_pca() fixture deliberately steps outside that
/// envelope to prove the invariants can fail — the fuzzer's own
/// regression test. The hospital family has no fault plan: its hazard
/// surface is the knob space itself, so hospital() samples a whole
/// hospital-small ScenarioSpec instead.

#pragma once

#include <cstdint>

#include "core/pca_scenario.hpp"
#include "core/xray_scenario.hpp"
#include "fault_plan.hpp"
#include "scenario/spec.hpp"

namespace mcps::testkit {

/// Which end-to-end workload a scenario index runs.
enum class WorkloadKind { kPca, kXray, kHospital };

[[nodiscard]] std::string_view to_string(WorkloadKind k) noexcept;

/// Largest fault intensity a generator accepts: up to 600 fault events
/// per plan, a hundred times the default mix.
inline constexpr double kMaxFaultIntensity = 100.0;

/// True iff \p intensity is a finite number in [0, kMaxFaultIntensity].
[[nodiscard]] bool fault_intensity_in_domain(double intensity) noexcept;

/// A generated PCA scenario plus its adversarial fault plan.
struct GeneratedPca {
    core::PcaScenarioConfig config;
    FaultPlan faults;
};

/// A generated X-ray/ventilator scenario (channel-level stress only; the
/// harness does not expose live parts for timed injection).
struct GeneratedXray {
    core::XrayScenarioConfig config;
};

class ScenarioGenerator {
public:
    /// \param fault_intensity scales the expected number of fault events
    ///        per plan (0 disables injection, 1 is the default mix).
    /// \throws std::invalid_argument naming \p fault_intensity when it
    ///         is outside fault_intensity_in_domain.
    explicit ScenarioGenerator(std::uint64_t master_seed,
                               double fault_intensity = 1.0);

    /// Deterministic workload choice for an index.
    [[nodiscard]] WorkloadKind kind_of(std::uint64_t index,
                                       double xray_fraction) const;

    [[nodiscard]] GeneratedPca pca(std::uint64_t index) const;
    [[nodiscard]] GeneratedXray xray(std::uint64_t index) const;

    /// Regression fixture: a deliberately unsafe interlock configuration
    /// (fail-operational, out-of-band thresholds, sluggish persistence and
    /// retries) on a high-risk patient with PCA-by-proxy demand. A correct
    /// fuzzer MUST find invariant violations here.
    [[nodiscard]] GeneratedPca weakened_pca(std::uint64_t index) const;

    /// A hospital-small spec. Safe mode stays inside the claimed-safe
    /// envelope (interlock=local; monitor period and deadline within
    /// their TA5 envelopes; storms allowed, since the pump-local
    /// interlock is bus-independent). \p hazard removes the interlock
    /// and synchronizes a large storm, which reliably blows the deadline
    /// within a few simulated minutes.
    [[nodiscard]] scenario::ScenarioSpec hospital(std::uint64_t index,
                                                  bool hazard) const;

    [[nodiscard]] std::uint64_t master_seed() const noexcept { return seed_; }

private:
    [[nodiscard]] FaultPlan sample_faults(mcps::sim::RngStream& rng,
                                          mcps::sim::SimDuration horizon) const;

    std::uint64_t seed_;
    double fault_intensity_;
};

}  // namespace mcps::testkit
