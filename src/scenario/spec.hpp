/// \file spec.hpp
/// \brief ScenarioSpec: the one-line reproducible scenario artifact.
///
/// A spec names a registered scenario plus everything needed to re-run
/// it exactly: master seed, duration, and a flat key=value override
/// table. Specs round-trip through two serializations:
///
///   text  : `pca seed=42 minutes=160 demand=proxy interlock=dual`
///   JSON  : `{"scenario":"pca","seed":42,"minutes":160,
///            "overrides":{"demand":"proxy","interlock":"dual"}}`
///
/// `parse_spec(s.to_text()) == s` and `parse_spec_json(s.to_json()) == s`
/// hold for every valid spec (enforced by the scenario test suite's
/// round-trip property test), so a spec line can be embedded verbatim in
/// fuzz repro files, ward campaign manifests, golden-trace headers and
/// bug reports alike and always reproduces the same run.
///
/// The spec layer is deliberately ignorant of what the keys mean: knob
/// names and values are validated by the ScenarioRegistry when the spec
/// is resolved against a registered scenario (registry.hpp).

#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace mcps::scenario {

/// Thrown on malformed spec text/JSON or — from the registry — on an
/// unknown scenario name or knob. The message is user-facing.
class SpecError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// The largest `minutes` a spec may carry: its horizon, minutes x 60e6
/// microseconds, must lie below SimTime::never(). (About 292,000
/// simulated years; it bounds the arithmetic, not the cost of a run.)
inline constexpr std::uint64_t kMaxSpecMinutes =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) /
    60'000'000;

/// \throws SpecError naming `minutes` when \p minutes exceeds
/// kMaxSpecMinutes.
void check_minutes(std::uint64_t minutes);

/// One reproducible scenario run, as data.
struct ScenarioSpec {
    /// Registered scenario name ([a-z0-9_-]+).
    std::string name;
    std::uint64_t seed = 42;
    std::uint64_t minutes = 30;  ///< at most kMaxSpecMinutes
    /// Flat knob overrides in declaration order (order is preserved by
    /// the serializations and is significant: knobs apply in order).
    std::vector<std::pair<std::string, std::string>> overrides;

    /// Value of an override key, nullptr if absent.
    [[nodiscard]] const std::string* find(std::string_view key) const;
    /// Replace an existing key's value or append a new override.
    /// \throws SpecError on an invalid key or value token.
    void set(std::string_view key, std::string_view value);

    /// Canonical one-line text form (round-trips through parse_spec).
    [[nodiscard]] std::string to_text() const;
    /// Canonical JSON object (round-trips through parse_spec_json).
    [[nodiscard]] std::string to_json() const;

    friend bool operator==(const ScenarioSpec&,
                           const ScenarioSpec&) = default;
};

/// Parse the text form: `name [seed=N] [minutes=N] [key=value]...`.
/// Keys may appear at most once; unknown keys are kept as overrides for
/// the registry to validate. \throws SpecError with a message naming
/// the offending token.
[[nodiscard]] ScenarioSpec parse_spec(std::string_view text);

/// Parse the JSON form (an object with "scenario", optional "seed",
/// "minutes" and "overrides"). Strings may use the escapes of the shared
/// reader (obs/json.hpp); the decoded text must still be in the spec
/// charset. \throws SpecError on malformed input.
[[nodiscard]] ScenarioSpec parse_spec_json(std::string_view json);

/// Read one JSON spec object at \p r's cursor, for documents that embed
/// a spec (serve requests). \throws SpecError on a bad spec and
/// obs::JsonError on malformed JSON.
[[nodiscard]] ScenarioSpec read_spec_json(obs::JsonReader& r);

}  // namespace mcps::scenario
