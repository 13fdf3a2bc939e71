#include "spec.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>

#include "obs/json.hpp"

namespace mcps::scenario {

namespace {

bool is_key_char(char c) noexcept {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
           c == '-';
}

/// Value tokens must survive both serializations unescaped: printable
/// ASCII without whitespace, quotes or backslashes.
bool is_value_char(char c) noexcept {
    return c > ' ' && c < 0x7f && c != '"' && c != '\\';
}

void validate_key(std::string_view key) {
    if (key.empty() ||
        !std::all_of(key.begin(), key.end(), is_key_char)) {
        throw SpecError{"spec: invalid key '" + std::string{key} +
                        "' (want [a-z0-9_-]+)"};
    }
}

void validate_value(std::string_view key, std::string_view value) {
    if (value.empty() ||
        !std::all_of(value.begin(), value.end(), is_value_char)) {
        throw SpecError{"spec: " + std::string{key} + ": invalid value '" +
                        std::string{value} + "'"};
    }
}

std::uint64_t parse_spec_u64(std::string_view key, std::string_view v) {
    std::uint64_t out = 0;
    const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || p != v.data() + v.size() || v.empty()) {
        throw SpecError{"spec: " + std::string{key} +
                        ": expected an integer, got '" + std::string{v} +
                        "'"};
    }
    return out;
}

std::vector<std::string_view> tokenize(std::string_view text) {
    std::vector<std::string_view> tokens;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])) != 0) {
            ++i;
        }
        const std::size_t start = i;
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])) == 0) {
            ++i;
        }
        if (i > start) tokens.push_back(text.substr(start, i - start));
    }
    return tokens;
}

}  // namespace

void check_minutes(std::uint64_t minutes) {
    if (minutes > kMaxSpecMinutes) {
        throw SpecError{"spec: minutes: " + std::to_string(minutes) +
                        " exceeds the largest horizon (" +
                        std::to_string(kMaxSpecMinutes) + ")"};
    }
}

const std::string* ScenarioSpec::find(std::string_view key) const {
    for (const auto& [k, v] : overrides) {
        if (k == key) return &v;
    }
    return nullptr;
}

void ScenarioSpec::set(std::string_view key, std::string_view value) {
    validate_key(key);
    validate_value(key, value);
    for (auto& [k, v] : overrides) {
        if (k == key) {
            v = std::string{value};
            return;
        }
    }
    overrides.emplace_back(std::string{key}, std::string{value});
}

std::string ScenarioSpec::to_text() const {
    std::ostringstream os;
    os << name << " seed=" << seed << " minutes=" << minutes;
    for (const auto& [k, v] : overrides) os << ' ' << k << '=' << v;
    return os.str();
}

std::string ScenarioSpec::to_json() const {
    // Keys and values are validated to the unescaped-safe charset, so
    // the writer needs no escaping.
    std::ostringstream os;
    os << "{\"scenario\": \"" << name << "\", \"seed\": " << seed
       << ", \"minutes\": " << minutes << ", \"overrides\": {";
    for (std::size_t i = 0; i < overrides.size(); ++i) {
        os << (i ? ", " : "") << '"' << overrides[i].first << "\": \""
           << overrides[i].second << '"';
    }
    os << "}}";
    return os.str();
}

ScenarioSpec parse_spec(std::string_view text) {
    const auto tokens = tokenize(text);
    if (tokens.empty()) throw SpecError{"spec: empty spec"};
    ScenarioSpec spec;
    if (tokens[0].find('=') != std::string_view::npos) {
        throw SpecError{"spec: expected a scenario name first, got '" +
                        std::string{tokens[0]} + "'"};
    }
    validate_key(tokens[0]);
    spec.name = std::string{tokens[0]};

    bool seen_seed = false, seen_minutes = false;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto tok = tokens[i];
        const std::size_t eq = tok.find('=');
        if (eq == std::string_view::npos) {
            throw SpecError{"spec: expected key=value, got '" +
                            std::string{tok} + "'"};
        }
        const auto key = tok.substr(0, eq);
        const auto value = tok.substr(eq + 1);
        validate_key(key);
        validate_value(key, value);
        if (key == "seed") {
            if (seen_seed) throw SpecError{"spec: duplicate key 'seed'"};
            seen_seed = true;
            spec.seed = parse_spec_u64(key, value);
        } else if (key == "minutes") {
            if (seen_minutes) {
                throw SpecError{"spec: duplicate key 'minutes'"};
            }
            seen_minutes = true;
            spec.minutes = parse_spec_u64(key, value);
            check_minutes(spec.minutes);
        } else {
            if (spec.find(key) != nullptr) {
                throw SpecError{"spec: duplicate key '" + std::string{key} +
                                "'"};
            }
            spec.overrides.emplace_back(std::string{key},
                                        std::string{value});
        }
    }
    return spec;
}

namespace {

/// Throws SpecError{\p what}, after consuming the value at the cursor
/// so that malformed JSON inside it still surfaces as the reader's error.
[[noreturn]] void reject_value(obs::JsonReader& r, const std::string& what) {
    r.skip();
    throw SpecError{what};
}

/// A value of the wrong kind is a spec error, not a JSON error.
void want(obs::JsonReader& r, obs::JsonKind kind, std::string_view key,
          const char* what) {
    if (r.peek() != kind) {
        reject_value(r, "spec json: " + std::string{key} + ": expected " +
                            what);
    }
}

}  // namespace

ScenarioSpec read_spec_json(obs::JsonReader& r) {
    using obs::JsonKind;
    ScenarioSpec spec;
    bool seen_name = false;
    std::string_view key;
    r.begin_object();
    while (r.next_member(key)) {
        if (key == "scenario") {
            want(r, JsonKind::kString, key, "a string");
            spec.name = r.string();
            validate_key(spec.name);
            seen_name = true;
        } else if (key == "seed") {
            want(r, JsonKind::kNumber, key, "an integer");
            spec.seed = parse_spec_u64(key, r.raw_value());
        } else if (key == "minutes") {
            want(r, JsonKind::kNumber, key, "an integer");
            spec.minutes = parse_spec_u64(key, r.raw_value());
            check_minutes(spec.minutes);
        } else if (key == "overrides") {
            want(r, JsonKind::kObject, key, "an object");
            r.begin_object();
            std::string_view k_view;
            while (r.next_member(k_view)) {
                std::string k{k_view};
                want(r, JsonKind::kString, k, "a string");
                std::string v{r.string()};
                if (spec.find(k) != nullptr) {
                    throw SpecError{"spec: duplicate key '" + k + "'"};
                }
                validate_key(k);
                validate_value(k, v);
                spec.overrides.emplace_back(std::move(k), std::move(v));
            }
        } else {
            reject_value(r, "spec json: unknown key '" + std::string{key} +
                                "'");
        }
    }
    if (!seen_name) throw SpecError{"spec json: missing 'scenario' key"};
    return spec;
}

ScenarioSpec parse_spec_json(std::string_view json) {
    obs::JsonReader r{json};
    try {
        ScenarioSpec spec = read_spec_json(r);
        if (!r.at_end()) {
            throw SpecError{"spec json: trailing content after object"};
        }
        return spec;
    } catch (const obs::JsonError& e) {
        throw SpecError{std::string{"spec json: "} + e.what()};
    }
}

}  // namespace mcps::scenario
