#include "finding.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace mcps::analysis {

using obs::json_escape;

namespace {

struct RuleInfo {
    RuleId id;
    std::string_view name;
    std::string_view summary;
};

constexpr std::array<RuleInfo, kNumRules> kRules{{
    {RuleId::kTA1, "TA1",
     "unreachable location or dead transition in a timed-automata model"},
    {RuleId::kTA2, "TA2",
     "nondeterminism: two transitions enabled on the same event with "
     "overlapping clock guards"},
    {RuleId::kTA3, "TA3",
     "potential zeno/livelock cycle: no clock is reset and bounded from "
     "below along the cycle"},
    {RuleId::kTA4, "TA4",
     "guard/invariant contradiction (empty DBM zone)"},
    {RuleId::kICE1, "ICE1",
     "assembly references an unregistered/unsatisfiable device or "
     "consumes an input no device produces"},
    {RuleId::kAS1, "AS1",
     "hazard not covered by any implemented mitigation or GSN goal"},
    {RuleId::kSIM1, "SIM1",
     "banned construct in deterministic simulation code (raw rand(), "
     "wall-clock time, unseeded RNG)"},
    {RuleId::kTA5, "TA5",
     "static worst-case interlock latency can exceed the deadline "
     "somewhere in the claimed-safe knob envelope"},
    {RuleId::kCONC1, "CONC1",
     "lock-discipline violation: guarded field touched outside its "
     "lock scope, undeclared/reversed lock nesting, or a cycle in the "
     "declared lock-order DAG"},
    {RuleId::kCFG1, "CFG1",
     "analysis configuration error: a scan root is missing or "
     "unreadable (the scan would silently cover zero files)"},
}};

std::size_t rule_index(RuleId r) noexcept {
    return static_cast<std::size_t>(r);
}

}  // namespace

const std::vector<RuleId>& all_rules() {
    static const std::vector<RuleId> rules = [] {
        std::vector<RuleId> v;
        v.reserve(kRules.size());
        for (const auto& info : kRules) v.push_back(info.id);
        return v;
    }();
    return rules;
}

std::string_view rule_name(RuleId r) noexcept {
    return kRules[rule_index(r)].name;
}

std::string_view rule_summary(RuleId r) noexcept {
    return kRules[rule_index(r)].summary;
}

bool parse_rule(std::string_view name, RuleId& out) noexcept {
    std::string upper{name};
    std::transform(upper.begin(), upper.end(), upper.begin(), [](char c) {
        return static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    });
    for (const auto& info : kRules) {
        if (upper == info.name) {
            out = info.id;
            return true;
        }
    }
    return false;
}

std::string_view to_string(FindingSeverity s) noexcept {
    return s == FindingSeverity::kError ? "error" : "warning";
}

std::string Finding::to_string() const {
    std::string out{rule_name(rule)};
    out += ' ';
    out += analysis::to_string(severity);
    if (!file.empty()) {
        out += ' ';
        out += file;
        if (line > 0) {
            out += ':';
            out += std::to_string(line);
        }
    }
    if (!entity.empty()) {
        out += ' ';
        out += entity;
    }
    out += ": ";
    out += message;
    return out;
}

void SuppressionSet::suppress(RuleId r) { suppressed_[rule_index(r)] = true; }

bool SuppressionSet::parse_list(std::string_view list) {
    bool staged[kNumRules] = {};
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        std::string_view token = list.substr(pos, comma - pos);
        // Trim surrounding whitespace.
        while (!token.empty() && std::isspace(static_cast<unsigned char>(
                                     token.front()))) {
            token.remove_prefix(1);
        }
        while (!token.empty() &&
               std::isspace(static_cast<unsigned char>(token.back()))) {
            token.remove_suffix(1);
        }
        if (!token.empty()) {
            RuleId r;
            if (!parse_rule(token, r)) return false;
            staged[rule_index(r)] = true;
        }
        if (comma == list.size()) break;
        pos = comma + 1;
    }
    for (std::size_t i = 0; i < kNumRules; ++i) {
        suppressed_[i] = suppressed_[i] || staged[i];
    }
    return true;
}

bool SuppressionSet::is_suppressed(RuleId r) const noexcept {
    return suppressed_[rule_index(r)];
}

std::size_t SuppressionSet::size() const noexcept {
    std::size_t n = 0;
    for (bool b : suppressed_) n += b ? 1 : 0;
    return n;
}

std::size_t AnalysisReport::errors() const noexcept {
    return static_cast<std::size_t>(
        std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
            return f.severity == FindingSeverity::kError;
        }));
}

std::size_t AnalysisReport::warnings() const noexcept {
    return findings.size() - errors();
}

std::string AnalysisReport::to_text() const {
    std::string out;
    for (const auto& f : findings) {
        out += f.to_string();
        out += '\n';
    }
    out += "analyzed: " + std::to_string(analyzed.size()) +
           " target(s), findings: " + std::to_string(findings.size()) + " (" +
           std::to_string(errors()) + " error, " + std::to_string(warnings()) +
           " warning), suppressed: " + std::to_string(suppressed_findings) +
           "\n";
    return out;
}

void AnalysisReport::write_json(std::ostream& out) const {
    out << "{\n  \"tool\": \"mcps_analyze\",\n";
    out << "  \"analyzed\": [";
    for (std::size_t i = 0; i < analyzed.size(); ++i) {
        out << (i ? ", " : "") << '"' << json_escape(analyzed[i]) << '"';
    }
    out << "],\n";
    out << "  \"errors\": " << errors() << ",\n";
    out << "  \"warnings\": " << warnings() << ",\n";
    out << "  \"suppressed\": " << suppressed_findings << ",\n";
    out << "  \"findings\": [\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding& f = findings[i];
        out << "    {\"rule\": \"" << rule_name(f.rule) << "\", "
            << "\"severity\": \"" << to_string(f.severity) << "\", "
            << "\"entity\": \"" << json_escape(f.entity) << "\", "
            << "\"file\": \"" << json_escape(f.file) << "\", "
            << "\"line\": " << f.line << ", "
            << "\"message\": \"" << json_escape(f.message) << "\"}"
            << (i + 1 < findings.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

}  // namespace mcps::analysis
