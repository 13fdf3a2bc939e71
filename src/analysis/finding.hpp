/// \file finding.hpp
/// \brief Diagnostics for the model-level safety linter.
///
/// Every analysis rule emits Findings: (rule, entity, message) triples
/// optionally anchored to a file/line (source-scan rules) or a model
/// entity (location, edge, requirement slot, hazard id). Rules are
/// individually suppressible, either globally (`--suppress TA2,SIM1`)
/// or — for source rules — inline via
/// `// mcps-analyze: allow(SIM1): reason`. The AnalysisReport
/// aggregates findings and renders them as text or as the flat JSON
/// format the bench_io.hpp convention established (hand-written writer,
/// no third-party JSON dependency).

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mcps::analysis {

/// The rule catalog. Stable ids — they appear in suppression lists,
/// JSON reports and docs.
enum class RuleId : std::uint8_t {
    kTA1,   ///< unreachable location / dead transition
    kTA2,   ///< nondeterminism: same event, overlapping guards
    kTA3,   ///< potential zeno/livelock cycle without time progress
    kTA4,   ///< guard/invariant contradiction (empty zone)
    kICE1,  ///< assembly references unsatisfiable device / orphan input
    kAS1,   ///< hazard not covered by any mitigation mechanism or GSN goal
    kSIM1,  ///< banned construct in deterministic simulation code
    kTA5,   ///< interlock deadline infeasible over the claimed-safe envelope
    kCONC1, ///< lock-discipline violation (guarded field / lock order)
    kCFG1,  ///< analysis configuration error (missing/unreadable scan root)
};

inline constexpr std::size_t kNumRules = 10;

/// All rules, for iteration.
[[nodiscard]] const std::vector<RuleId>& all_rules();

[[nodiscard]] std::string_view rule_name(RuleId r) noexcept;
[[nodiscard]] std::string_view rule_summary(RuleId r) noexcept;

/// Parse "TA1" etc. (case-insensitive). Returns false on unknown names.
[[nodiscard]] bool parse_rule(std::string_view name, RuleId& out) noexcept;

enum class FindingSeverity : std::uint8_t {
    kWarning,  ///< suspicious but not provably unsafe
    kError,    ///< violates the rule outright
};

[[nodiscard]] std::string_view to_string(FindingSeverity s) noexcept;

/// One diagnostic.
struct Finding {
    RuleId rule = RuleId::kTA1;
    FindingSeverity severity = FindingSeverity::kError;
    /// The model entity the finding is about: "model/location",
    /// "assembly/slot", hazard id, ... Empty for pure file findings.
    std::string entity;
    /// Source file (source-scan rules) or model source hint; optional.
    std::string file;
    std::size_t line = 0;  ///< 1-based; 0 = not file-anchored
    std::string message;

    /// "TA1 error pump/Idle: message" or "SIM1 error file:12: message".
    [[nodiscard]] std::string to_string() const;
};

/// Which rules are globally disabled.
class SuppressionSet {
public:
    void suppress(RuleId r);
    /// Parse a comma-separated list ("TA2,sim1"). Returns false and
    /// leaves the set unchanged on any unknown rule name.
    [[nodiscard]] bool parse_list(std::string_view list);
    [[nodiscard]] bool is_suppressed(RuleId r) const noexcept;
    [[nodiscard]] std::size_t size() const noexcept;

private:
    bool suppressed_[kNumRules] = {};
};

/// Aggregated result of one analyzer run.
struct AnalysisReport {
    std::vector<Finding> findings;
    /// Names of the models/assemblies/trees analyzed (for the report
    /// header; proves the clean run actually covered something).
    std::vector<std::string> analyzed;
    /// Findings dropped by global or inline suppression.
    std::size_t suppressed_findings = 0;

    [[nodiscard]] bool clean() const noexcept { return findings.empty(); }
    [[nodiscard]] std::size_t errors() const noexcept;
    [[nodiscard]] std::size_t warnings() const noexcept;

    /// Human-readable multi-line rendering.
    [[nodiscard]] std::string to_text() const;
    /// Flat JSON report (bench_io.hpp conventions: hand-written,
    /// deterministic key order).
    void write_json(std::ostream& out) const;
};

}  // namespace mcps::analysis
