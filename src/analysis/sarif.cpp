#include "sarif.hpp"

#include <initializer_list>
#include <ostream>
#include <set>
#include <vector>

#include "obs/json.hpp"

namespace mcps::analysis {

using obs::json_escape;

// ---- writer ----------------------------------------------------------------

void write_sarif(const AnalysisReport& report, std::ostream& out) {
    out << "{\n"
        << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""
        << ",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n"
        << "      \"tool\": {\n        \"driver\": {\n"
        << "          \"name\": \"mcps_analyze\",\n"
        << "          \"informationUri\": "
           "\"https://example.invalid/mcps_analyze\",\n"
        << "          \"rules\": [\n";
    const std::vector<RuleId>& rules = all_rules();
    for (std::size_t i = 0; i < rules.size(); ++i) {
        out << "            {\"id\": \"" << rule_name(rules[i]) << "\", "
            << "\"shortDescription\": {\"text\": \""
            << json_escape(rule_summary(rules[i])) << "\"}}"
            << (i + 1 < rules.size() ? "," : "") << "\n";
    }
    out << "          ]\n        }\n      },\n      \"results\": [\n";
    for (std::size_t i = 0; i < report.findings.size(); ++i) {
        const Finding& f = report.findings[i];
        out << "        {\"ruleId\": \"" << rule_name(f.rule) << "\", "
            << "\"level\": \""
            << (f.severity == FindingSeverity::kError ? "error" : "warning")
            << "\", \"message\": {\"text\": \""
            << json_escape(f.entity.empty() ? f.message
                                            : f.entity + ": " + f.message)
            << "\"}";
        if (!f.file.empty()) {
            out << ", \"locations\": [{\"physicalLocation\": "
                << "{\"artifactLocation\": {\"uri\": \"" << json_escape(f.file)
                << "\"}";
            if (f.line > 0) {
                out << ", \"region\": {\"startLine\": " << f.line << "}";
            }
            out << "}}]";
        }
        out << "}" << (i + 1 < report.findings.size() ? "," : "") << "\n";
    }
    out << "      ]\n    }\n  ]\n}\n";
}

namespace {

using obs::JsonKind;
using obs::JsonValue;

struct Invalid {
    std::string what;
};

void require(bool cond, const std::string& what) {
    if (!cond) throw Invalid{what};
}

bool is(const JsonValue* v, JsonKind kind) {
    return v != nullptr && v->kind == kind;
}

/// The value at \p path below \p v; nullptr when a step is missing.
const JsonValue* at(const JsonValue& v,
                    std::initializer_list<std::string_view> path) {
    const JsonValue* cur = &v;
    for (const std::string_view key : path) {
        if (cur != nullptr) cur = cur->get(key);
    }
    return cur;
}

void check_sarif(const JsonValue& root) {
    require(root.kind == JsonKind::kObject, "root is not an object");
    const JsonValue* version = root.get("version");
    require(is(version, JsonKind::kString) && version->string == "2.1.0",
            "version is not the string \"2.1.0\"");
    const JsonValue* runs = root.get("runs");
    require(is(runs, JsonKind::kArray) && !runs->array.empty(),
            "runs is not a non-empty array");

    for (const JsonValue& run : runs->array) {
        const JsonValue* name = at(run, {"tool", "driver", "name"});
        require(is(name, JsonKind::kString) && !name->string.empty(),
                "run has no tool.driver.name");

        std::set<std::string> rule_ids;
        if (const JsonValue* rules = at(run, {"tool", "driver", "rules"})) {
            require(rules->kind == JsonKind::kArray,
                    "tool.driver.rules is not an array");
            for (const JsonValue& rule : rules->array) {
                const JsonValue* id = rule.get("id");
                require(is(id, JsonKind::kString) && !id->string.empty(),
                        "a rule has no string id");
                require(rule_ids.insert(id->string).second,
                        "duplicate rule id '" + id->string + "'");
            }
        }

        const JsonValue* results = run.get("results");
        require(is(results, JsonKind::kArray), "run has no results array");
        for (const JsonValue& res : results->array) {
            const JsonValue* rule_id = res.get("ruleId");
            require(is(rule_id, JsonKind::kString),
                    "a result has no string ruleId");
            require(rule_ids.empty() || rule_ids.count(rule_id->string) != 0,
                    "result ruleId '" + rule_id->string +
                        "' is not in tool.driver.rules");
            if (const JsonValue* level = res.get("level")) {
                const std::string& l = level->string;
                require(level->kind == JsonKind::kString &&
                            (l == "none" || l == "note" || l == "warning" ||
                             l == "error"),
                        "illegal result level");
            }
            require(is(at(res, {"message", "text"}), JsonKind::kString),
                    "a result has no message.text string");
            if (const JsonValue* locs = res.get("locations")) {
                require(locs->kind == JsonKind::kArray,
                        "result locations is not an array");
                for (const JsonValue& loc : locs->array) {
                    const JsonValue* start =
                        at(loc, {"physicalLocation", "region", "startLine"});
                    require(start == nullptr ||
                                (start->kind == JsonKind::kNumber &&
                                 start->number >= 1.0),
                            "region startLine < 1");
                }
            }
        }
    }
}

}  // namespace

// ---- validator -------------------------------------------------------------

bool validate_sarif_minimal(std::string_view text, std::string& error) {
    try {
        check_sarif(obs::parse_json(text));
    } catch (const obs::JsonError& e) {
        error = e.what();
        return false;
    } catch (const Invalid& e) {
        error = e.what;
        return false;
    }
    error.clear();
    return true;
}

}  // namespace mcps::analysis
