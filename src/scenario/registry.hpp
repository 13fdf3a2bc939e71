/// \file registry.hpp
/// \brief ScenarioRegistry: named, knob-documented scenario factories.
///
/// The registry is the single runtime surface for assembling and
/// running end-to-end scenarios. Each entry maps a name ("pca",
/// "pca-open", "smart-alarm", "xray", "xray-manual") to per-scenario
/// metadata — description, default duration, the knobs a spec may
/// override — and a factory that resolves a ScenarioSpec into a
/// concrete configuration and runs it to RunArtifacts. Benches, CLIs,
/// the ward engine, the testkit and the examples all start here instead
/// of re-declaring PcaScenarioConfig/XrayScenarioConfig defaults by
/// hand; the ICE1 lint (`mcps analyze`) flags scenario assemblies that
/// bypass the layer.
///
/// Consumers that sweep a parameter not expressible as a flat knob
/// (sampled patient populations, mid-run fault hooks) use
/// make_pca_config()/make_xray_config() to resolve the spec into a
/// config, adjust the swept field, and run the core harness themselves.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "artifacts.hpp"
#include "presets.hpp"
#include "spec.hpp"

namespace mcps::scenario {

/// Which core harness a scenario resolves to.
enum class ScenarioFamily { kPca, kXray, kHospital };

[[nodiscard]] std::string_view to_string(ScenarioFamily f) noexcept;

/// One documented override knob. The kind + domain fields exist so
/// `mcps run describe` can print the legal values and the round-trip
/// property test can sample valid random overrides.
struct KnobInfo {
    enum class Kind : std::uint8_t {
        kChoice,  ///< one of `choices`
        kNumber,  ///< decimal in [lo, hi]
        kCount,   ///< unsigned integer in [1, max_count]
    };

    std::string name;
    std::string description;
    Kind kind = Kind::kNumber;
    std::vector<std::string> choices;  ///< kChoice domain
    double lo = 0.0, hi = 1.0;         ///< kNumber domain
    std::uint64_t max_count = 1;       ///< kCount domain

    /// Claimed-safe envelope, consumed by the TA5 deadline-feasibility
    /// lint (`mcps analyze`): the sub-domain over which the scenario's
    /// safety claim is made. The full domain stays settable — runs
    /// outside the envelope are hazard experiments, not claimed safe.
    /// Defaults claim the whole domain; knobs that stretch the
    /// interlock reaction path (network latency/jitter/loss, interlock
    /// mode, data-loss policy) narrow it in registry.cpp.
    double safe_lo = 0.0, safe_hi = 1.0;  ///< kNumber envelope
    /// kChoice envelope; empty = every choice is claimed safe.
    std::vector<std::string> safe_choices;
};

/// Per-scenario metadata (everything `mcps run list/describe` shows).
struct ScenarioInfo {
    std::string name;
    std::string description;
    ScenarioFamily family = ScenarioFamily::kPca;
    std::uint64_t default_minutes = 30;
    std::vector<KnobInfo> knobs;

    [[nodiscard]] const KnobInfo* find_knob(std::string_view name) const;
    /// Whether a run fills RunOptions::events. Hospital-family runs do
    /// not: the engine aggregates per ward and keeps no event stream.
    [[nodiscard]] bool records_event_log() const noexcept {
        return family != ScenarioFamily::kHospital;
    }
};

class ScenarioRegistry {
public:
    using Runner =
        std::function<RunArtifacts(const ScenarioSpec&, const RunOptions&)>;

    /// Register one scenario. \throws SpecError on a duplicate name.
    void add(ScenarioInfo info, Runner runner);

    /// Registered names in registration order.
    [[nodiscard]] std::vector<std::string> names() const;
    /// Metadata lookup; nullptr when unknown.
    [[nodiscard]] const ScenarioInfo* find(std::string_view name) const;
    /// Metadata lookup. \throws SpecError listing the known names.
    [[nodiscard]] const ScenarioInfo& info(std::string_view name) const;

    /// Resolve and run one spec. Every override key must be a knob the
    /// scenario declares. \throws SpecError on an unknown scenario or
    /// knob, or a malformed knob value.
    [[nodiscard]] RunArtifacts run(const ScenarioSpec& spec,
                                   const RunOptions& opts = {}) const;

    /// A spec for \p name with the scenario's default duration (seed
    /// stays the ScenarioSpec default). \throws SpecError when unknown.
    [[nodiscard]] ScenarioSpec default_spec(std::string_view name) const;

private:
    struct Entry {
        ScenarioInfo info;
        Runner runner;
    };
    std::vector<Entry> entries_;
};

/// The process-wide registry holding the built-in scenarios. Built once
/// on first use; safe to call from multiple threads afterwards.
[[nodiscard]] const ScenarioRegistry& registry();

/// Resolve a PCA-family spec into its concrete configuration (preset +
/// knob overrides; `events` is left null). \throws SpecError when the
/// scenario is unknown, not PCA-family, or a knob is invalid.
[[nodiscard]] core::PcaScenarioConfig make_pca_config(
    const ScenarioSpec& spec);

/// Resolve an x-ray-family spec. \throws SpecError as above.
[[nodiscard]] core::XrayScenarioConfig make_xray_config(
    const ScenarioSpec& spec);

/// Resolve a hospital-family spec. \throws SpecError as above.
[[nodiscard]] hospital::HospitalConfig make_hospital_config(
    const ScenarioSpec& spec);

}  // namespace mcps::scenario
