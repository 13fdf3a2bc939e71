#include "exporters.hpp"

#include <cmath>
#include <istream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "format.hpp"
#include "json.hpp"

namespace mcps::obs {

// ---- JSONL ------------------------------------------------------------

void write_jsonl(const EventLog& log, std::ostream& os) {
    for (const auto& e : log.events()) {
        os << "{\"t_us\":" << e.time.ticks() << ",\"kind\":\""
           << to_string(e.kind) << "\",\"src\":\"" << json_escape(e.source)
           << "\",\"detail\":\"" << json_escape(e.detail)
           << "\",\"value\":" << format_number(e.value) << "}\n";
    }
}

namespace {

/// Reads one write_jsonl line into \p log: t_us an int64, value a
/// number or null (NaN), kind/src/detail strings. Unknown keys are
/// skipped.
void read_event(std::string_view line, EventLog& log) {
    JsonReader r{line};
    if (r.peek() != JsonKind::kObject) {
        r.skip();  // a malformed non-object reports the reader's error
        r.fail("not an object");
    }
    std::optional<std::int64_t> t_us;
    std::optional<EventKind> kind;
    std::optional<std::string> src, detail;
    std::optional<double> value;
    std::string_view key;
    r.begin_object();
    while (r.next_member(key)) {
        const JsonKind k = r.peek();
        const bool str = k == JsonKind::kString;
        if (key == "t_us" && k == JsonKind::kNumber) {
            t_us = r.int64();
        } else if (key == "kind" && str) {
            const std::string_view name = r.string();
            kind = event_kind_from(name);
            if (!kind) r.fail("unknown event kind '" + std::string{name} + "'");
        } else if (key == "src" && str) {
            src = r.string();
        } else if (key == "detail" && str) {
            detail = r.string();
        } else if (key == "value" && k == JsonKind::kNumber) {
            value = r.number();
        } else if (key == "value" && k == JsonKind::kNull) {
            r.null();
            value = std::numeric_limits<double>::quiet_NaN();
        } else if (key == "t_us" || key == "kind" || key == "src" ||
                   key == "detail" || key == "value") {
            r.fail("'" + std::string{key} + "' has the wrong type");
        } else {
            r.skip();
        }
    }
    r.finish();
    if (!t_us || !kind || !src || !detail || !value) {
        r.fail("missing event field");
    }
    log.emit(*kind,
             mcps::sim::SimTime::origin() +
                 mcps::sim::SimDuration::micros(*t_us),
             std::move(*src), std::move(*detail), *value);
}

}  // namespace

EventLog read_jsonl(std::istream& is) {
    EventLog log;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty()) continue;
        try {
            read_event(line, log);
        } catch (const JsonError& e) {
            throw std::runtime_error("jsonl line " + std::to_string(lineno) +
                                     ": " + e.what());
        }
    }
    return log;
}

// ---- Chrome trace_event ----------------------------------------------

void write_chrome_trace(const EventLog& log, std::ostream& os) {
    // One timeline lane per source, numbered by first appearance (the
    // emission order is deterministic, so lane numbering is too).
    std::map<std::string, int> lane;
    std::vector<std::string> lane_order;
    for (const auto& e : log.events()) {
        if (lane.emplace(e.source, static_cast<int>(lane_order.size()) + 1)
                .second) {
            lane_order.push_back(e.source);
        }
    }

    os << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < lane_order.size(); ++i) {
        os << (first ? "\n" : ",\n")
           << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
           << i + 1 << ",\"args\":{\"name\":\"" << json_escape(lane_order[i])
           << "\"}}";
        first = false;
    }
    for (const auto& e : log.events()) {
        os << (first ? "\n" : ",\n") << "{\"name\":\""
           << json_escape(std::string{to_string(e.kind)} + ":" + e.detail)
           << "\",\"cat\":\"" << to_string(e.kind)
           << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << e.time.ticks()
           << ",\"pid\":1,\"tid\":" << lane.at(e.source)
           << ",\"args\":{\"value\":" << format_number(e.value) << "}}";
        first = false;
    }
    os << "\n]}\n";
}

// ---- bench --json schema ---------------------------------------------

namespace {

struct Invalid {
    std::string what;
};

/// \p obj's member \p key, which must exist with kind \p kind.
const JsonValue& member(const JsonValue& obj, std::string_view key,
                        JsonKind kind, const std::string& at = "") {
    const JsonValue* v = obj.get(key);
    if (!v) throw Invalid{at + "missing key '" + std::string{key} + "'"};
    if (v->kind != kind) {
        throw Invalid{at + "key '" + std::string{key} +
                      "' has the wrong type"};
    }
    return *v;
}

void check_bench(const JsonValue& root) {
    if (root.kind != JsonKind::kObject) {
        throw Invalid{"top level is not an object"};
    }
    (void)member(root, "bench", JsonKind::kString);
    const double seed = member(root, "seed", JsonKind::kNumber).number;
    if (seed != std::floor(seed)) throw Invalid{"'seed' is not an integer"};
    const JsonValue& metrics = member(root, "metrics", JsonKind::kArray);
    for (std::size_t i = 0; i < metrics.array.size(); ++i) {
        const JsonValue& m = metrics.array[i];
        const std::string at = "metrics[" + std::to_string(i) + "]: ";
        if (m.kind != JsonKind::kObject) throw Invalid{at + "not an object"};
        (void)member(m, "name", JsonKind::kString, at);
        (void)member(m, "unit", JsonKind::kString, at);
        // The reader yields only finite numbers, so number-or-null is
        // the whole "finite or null" rule.
        const JsonValue* value = m.get("value");
        if (!value || (value->kind != JsonKind::kNumber &&
                       value->kind != JsonKind::kNull)) {
            throw Invalid{at + "'value' must be a number or null"};
        }
    }
}

}  // namespace

bool validate_bench_json(std::istream& is, std::string& error) {
    const std::string text{std::istreambuf_iterator<char>{is},
                           std::istreambuf_iterator<char>{}};
    try {
        check_bench(parse_json(text));
    } catch (const JsonError& e) {
        error = e.what();
        return false;
    } catch (const Invalid& e) {
        error = e.what;
        return false;
    }
    return true;
}

}  // namespace mcps::obs
