/// \file test_json.cpp
/// \brief The shared JSON reader (obs/json.hpp): escape set, the string
/// scan against a byte loop, whole-token numbers, the depth bound,
/// raw_value spans, and a mutation sweep over every document shape the
/// repo reads (JSONL event, bench report, SARIF, scenario spec)
/// asserting the reader is total, with its outcomes pinned.

#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>

#include "obs/exporters.hpp"
#include "obs/json.hpp"
#include "sim/hash.hpp"

namespace {

using namespace mcps::obs;

/// The JsonError message for \p text, or "" when it parses.
std::string error_of(std::string_view text) {
    try {
        (void)parse_json(text);
    } catch (const JsonError& e) {
        return e.what();
    }
    return "";
}

bool rejects(std::string_view text) { return !error_of(text).empty(); }

std::string decode(std::string_view quoted) {
    return parse_json(quoted).string;
}

// ---- strings ---------------------------------------------------------

TEST(Json, DecodesTheEscapeSet) {
    EXPECT_EQ(decode(R"("q\"b\\s\/")"), "q\"b\\s/");
    EXPECT_EQ(decode(R"("\b\f\n\r\t")"), "\b\f\n\r\t");
    EXPECT_EQ(decode(R"("A\u007f\u0000z")"),
              std::string("A\x7f", 2) + std::string(1, '\0') + "z");
    EXPECT_EQ(decode(R"("\u001F")"), "\x1f");
    EXPECT_EQ(decode("\"caf\xC3\xA9\""), "caf\xC3\xA9");  // raw UTF-8 passes
}

TEST(Json, EscapeRoundTripsEveryAsciiByte) {
    std::string all;
    for (int c = 0; c < 0x80; ++c) all.push_back(static_cast<char>(c));
    const std::string escaped = json_escape(all);
    for (const char c : escaped) {
        EXPECT_GE(static_cast<unsigned char>(c), 0x20U) << escaped;
    }
    EXPECT_EQ(decode("\"" + escaped + "\""), all);
}

TEST(Json, RejectsEscapesOutsideTheSet) {
    EXPECT_NE(error_of(R"("\u0080")").find("U+007F"), std::string::npos);
    EXPECT_TRUE(rejects(R"("\u00e9")"));
    EXPECT_TRUE(rejects(R"("\uD83D")"));
    EXPECT_TRUE(rejects(R"("\u00G0")"));
    EXPECT_TRUE(rejects(R"("\u004")"));
    EXPECT_TRUE(rejects(R"("\x41")"));
    EXPECT_TRUE(rejects(R"("\a")"));
    EXPECT_TRUE(rejects(R"("\)"));
    EXPECT_TRUE(rejects(R"("open)"));
}

TEST(Json, RejectsRawControlBytes) {
    EXPECT_NE(error_of(std::string{"\"a\x01z\""}).find("control"),
              std::string::npos);
    EXPECT_TRUE(rejects("\"tab\there\""));
    EXPECT_TRUE(rejects("\"line\nbreak\""));
    EXPECT_TRUE(rejects(std::string("\"nul\0\"", 6)));
    EXPECT_FALSE(rejects("\"del\x7f\""));
}

/// The string rules as a plain byte loop, one byte per step: what a
/// whole document holding one string (with whitespace around it) reads
/// to, as "ok <value>" or "error <reason> at offset <n>".
std::string reference_string(std::string_view doc) {
    const auto error = [](const char* reason, std::size_t at) {
        return std::string{"error "} + reason + " at offset " +
               std::to_string(at);
    };
    const auto is_ws = [](char c) {
        return c == ' ' || c == '\n' || c == '\r' || c == '\t';
    };
    std::size_t pos = 0;
    while (pos < doc.size() && is_ws(doc[pos])) ++pos;
    if (pos >= doc.size()) return error("unexpected end of input", pos);
    if (doc[pos] != '"') return error("expected '\"'", pos);
    ++pos;
    std::string value;
    while (true) {
        if (pos >= doc.size()) return error("unterminated string", pos);
        const char c = doc[pos];
        if (c == '"') break;
        if (static_cast<unsigned char>(c) < 0x20) {
            return error("raw control byte in string", pos);
        }
        if (c != '\\') {
            value.push_back(c);
            ++pos;
            continue;
        }
        if (++pos >= doc.size()) return error("unterminated escape", pos);
        switch (doc[pos]) {
            case '"': value.push_back('"'); break;
            case '\\': value.push_back('\\'); break;
            case '/': value.push_back('/'); break;
            case 'b': value.push_back('\b'); break;
            case 'f': value.push_back('\f'); break;
            case 'n': value.push_back('\n'); break;
            case 'r': value.push_back('\r'); break;
            case 't': value.push_back('\t'); break;
            case 'u': {
                unsigned v = 0;
                for (std::size_t i = 1; i <= 4; ++i) {
                    const char h = pos + i < doc.size() ? doc[pos + i] : 'g';
                    const int d = h >= '0' && h <= '9'   ? h - '0'
                                  : h >= 'a' && h <= 'f' ? h - 'a' + 10
                                  : h >= 'A' && h <= 'F' ? h - 'A' + 10
                                                         : -1;
                    if (d < 0) return error("bad \\u escape", pos);
                    v = v * 16 + static_cast<unsigned>(d);
                }
                if (v > 0x7F) return error("\\u escape above U+007F", pos);
                value.push_back(static_cast<char>(v));
                pos += 4;
                break;
            }
            default: return error("unknown escape", pos);
        }
        ++pos;
    }
    ++pos;
    while (pos < doc.size() && is_ws(doc[pos])) ++pos;
    if (pos != doc.size()) return error("trailing content", pos);
    return "ok " + value;
}

/// The same document through the reader's cursor.
std::string reader_string(std::string_view doc) {
    try {
        JsonReader r{doc};
        std::string value{r.string()};
        r.finish();
        return "ok " + value;
    } catch (const JsonError& e) {
        return std::string{"error "} + e.what();
    }
}

/// The word-at-a-time string scan against the byte loop: every byte at
/// every offset of a 16-byte string, the string starting at every
/// position mod 8, closed in each of the buffer's last eight bytes or
/// left unterminated. Same value, or same error text at the same offset.
TEST(Json, StringScanMatchesAByteLoop) {
    std::size_t cases = 0, errors = 0;
    for (const char filler : {'x', '\xe9'}) {
        for (std::size_t lead = 0; lead < 8; ++lead) {
            for (std::size_t at = 0; at < 16; ++at) {
                for (int byte = 0; byte < 256; ++byte) {
                    std::string body(16, filler);
                    body[at] = static_cast<char>(byte);
                    const std::string open = std::string(lead, ' ') + '"' +
                                             body;
                    for (std::size_t pad = 0; pad <= 8; ++pad) {
                        // pad 8: no closing quote at all.
                        const std::string doc =
                            pad == 8 ? open
                                     : open + '"' + std::string(pad, ' ');
                        const std::string want = reference_string(doc);
                        ASSERT_EQ(reader_string(doc), want)
                            << "lead " << lead << " at " << at << " byte "
                            << byte << " pad " << pad;
                        ++cases;
                        errors += want.starts_with("error ") ? 1 : 0;
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, 2u * 8 * 16 * 256 * 9);
    EXPECT_GT(errors, 0u);
    EXPECT_LT(errors, cases);
}

// ---- numbers ---------------------------------------------------------

TEST(Json, NumbersMustBeOneWholeToken) {
    EXPECT_EQ(parse_json("-0.5e-3").number, -0.5e-3);
    EXPECT_EQ(parse_json("0").number, 0.0);
    EXPECT_EQ(parse_json("17").number, 17.0);
    EXPECT_EQ(parse_json("1E+2").number, 100.0);
    for (const char* bad : {"1-2", "1+2", ".5", "-", "+1", "1e", "1e+",
                            "1.2.3", "--1", "1ee2", "0x10", "1e400"}) {
        EXPECT_TRUE(rejects(bad)) << bad;
    }
    // Inside a container the token still has to be whole.
    EXPECT_TRUE(rejects("[1-2]"));
    EXPECT_TRUE(rejects(R"({"a":3.0.1})"));
}

TEST(Json, IntegersAreExactAndRangeChecked) {
    const auto int64_of = [](std::string_view t) {
        JsonReader r{t};
        return r.int64();
    };
    const auto uint64_of = [](std::string_view t) {
        JsonReader r{t};
        return r.uint64();
    };
    EXPECT_EQ(int64_of("-9223372036854775808"), INT64_MIN);
    EXPECT_EQ(int64_of("9223372036854775807"), INT64_MAX);
    EXPECT_EQ(uint64_of("18446744073709551615"), UINT64_MAX);
    EXPECT_THROW(int64_of("9223372036854775808"), JsonError);
    EXPECT_THROW(int64_of("1e300"), JsonError);
    EXPECT_THROW(int64_of("1.0"), JsonError);
    EXPECT_THROW(uint64_of("-1"), JsonError);
    EXPECT_THROW(uint64_of("18446744073709551616"), JsonError);
    EXPECT_THROW(int64_of("\"7\""), JsonError);
}

// ---- structure -------------------------------------------------------

TEST(Json, DepthSixteenAcceptedSeventeenRejected) {
    const auto nested = [](int depth, char open, std::string_view inner,
                           char close) {
        std::string s;
        for (int i = 0; i < depth; ++i) s += open;
        s += inner;
        for (int i = 0; i < depth; ++i) s += close;
        return s;
    };
    EXPECT_FALSE(rejects(nested(kJsonMaxDepth, '[', "1", ']')));
    const std::string err = error_of(nested(kJsonMaxDepth + 1, '[', "", ']'));
    EXPECT_NE(err.find("deeper than 16"), std::string::npos) << err;
    EXPECT_NE(err.find("at offset 16"), std::string::npos) << err;

    std::string objects;
    for (int i = 0; i < kJsonMaxDepth; ++i) objects += R"({"k":)";
    objects += "null";
    objects += std::string(static_cast<std::size_t>(kJsonMaxDepth), '}');
    EXPECT_FALSE(rejects(objects));
    EXPECT_TRUE(rejects("[" + objects + "]"));

    // Far past the bound the reader stops at the bound: no recursion.
    const std::string deep(200000, '[');
    EXPECT_NE(error_of(deep).find("deeper than 16"), std::string::npos);
    JsonReader r{deep};
    EXPECT_THROW(r.skip(), JsonError);
}

TEST(Json, RejectsMalformedContainers) {
    for (const char* bad :
         {"", "   ", "{", "[", "]", "}", R"({"a":1,})", "[1,]", "[,1]",
          R"({"a" 1})", R"({a:1})", R"({"a":1 "b":2})", "[1 2]",
          R"({"a":1}})", "[1] x", "tru", "nul", "nan", "{\"a\":}"}) {
        EXPECT_TRUE(rejects(bad)) << bad;
    }
    EXPECT_FALSE(rejects(" \t\r\n{ } \n"));
    EXPECT_FALSE(rejects("[]"));
}

TEST(Json, ErrorsCarryTheByteOffset) {
    try {
        (void)parse_json("[1, x]");
        FAIL() << "expected JsonError";
    } catch (const JsonError& e) {
        EXPECT_EQ(e.offset(), 4U);
        EXPECT_NE(std::string{e.what()}.find("at offset 4"),
                  std::string::npos);
    }
}

TEST(Json, CursorReadsAFixedShape) {
    JsonReader r{R"( {"n":3,"s":"x\ty","b":false,"z":null,"a":[1,2]} )"};
    std::string_view key;
    r.begin_object();
    ASSERT_TRUE(r.next_member(key));
    EXPECT_EQ(key, "n");
    EXPECT_EQ(r.int64(), 3);
    ASSERT_TRUE(r.next_member(key));
    EXPECT_EQ(key, "s");
    EXPECT_EQ(r.peek(), JsonKind::kString);
    EXPECT_EQ(r.string(), "x\ty");
    ASSERT_TRUE(r.next_member(key));
    EXPECT_FALSE(r.boolean());
    ASSERT_TRUE(r.next_member(key));
    EXPECT_EQ(r.peek(), JsonKind::kNull);
    r.null();
    ASSERT_TRUE(r.next_member(key));
    EXPECT_EQ(key, "a");
    r.begin_array();
    std::int64_t sum = 0;
    while (r.next_element()) sum += r.int64();
    EXPECT_EQ(sum, 3);
    EXPECT_FALSE(r.next_member(key));
    EXPECT_TRUE(r.at_end());
    EXPECT_NO_THROW(r.finish());
}

TEST(Json, RawValueCapturesBalancedSpans) {
    JsonReader r{R"({"a": {"b":[1,"x}]\"",{}]} , "c" : -1.5e3,)"
                 R"("d":"s\"q", "e":true})"};
    std::string_view key;
    r.begin_object();
    ASSERT_TRUE(r.next_member(key));
    EXPECT_EQ(r.raw_value(), R"({"b":[1,"x}]\"",{}]})");
    ASSERT_TRUE(r.next_member(key));
    EXPECT_EQ(r.raw_value(), "-1.5e3");
    ASSERT_TRUE(r.next_member(key));
    EXPECT_EQ(r.raw_value(), R"("s\"q")");
    ASSERT_TRUE(r.next_member(key));
    EXPECT_EQ(r.raw_value(), "true");
    EXPECT_FALSE(r.next_member(key));
    r.finish();

    // A raw span is validated like any other value.
    JsonReader bad{R"({"a":[1,}])"};
    bad.begin_object();
    ASSERT_TRUE(bad.next_member(key));
    EXPECT_THROW((void)bad.raw_value(), JsonError);
}

TEST(Json, DomKeepsOrderAndFirstDuplicate) {
    const JsonValue v = parse_json(R"({"b":1,"a":[true,"s"],"b":2})");
    ASSERT_EQ(v.kind, JsonKind::kObject);
    ASSERT_EQ(v.object.size(), 3U);
    EXPECT_EQ(v.object[0].first, "b");
    EXPECT_EQ(v.get("b")->number, 1.0);
    ASSERT_EQ(v.get("a")->array.size(), 2U);
    EXPECT_EQ(v.get("a")->array[0].kind, JsonKind::kBool);
    EXPECT_EQ(v.get("a")->array[1].string, "s");
    EXPECT_EQ(v.get("missing"), nullptr);
    EXPECT_EQ(v.get("a")->get("x"), nullptr);  // not an object
}

// ---- totality --------------------------------------------------------

/// A canonical rendering of a parsed value, for outcome digests.
std::string render(const JsonValue& v) {
    switch (v.kind) {
        case JsonKind::kNull: return "n";
        case JsonKind::kBool: return "b";  // the tree keeps no bool value
        case JsonKind::kNumber: {
            char buf[32];
            const auto r = std::to_chars(buf, buf + sizeof buf, v.number);
            return "#" + std::string(buf, r.ptr);
        }
        case JsonKind::kString:
            return "s" + std::to_string(v.string.size()) + ":" + v.string;
        case JsonKind::kArray: {
            std::string out = "[";
            for (const JsonValue& e : v.array) out += render(e) + ",";
            return out + "]";
        }
        case JsonKind::kObject: {
            std::string out = "{";
            for (const auto& [k, e] : v.object) {
                out += std::to_string(k.size()) + ":" + k + "=" + render(e) +
                       ",";
            }
            return out + "}";
        }
    }
    return "?";
}

/// What parse_json makes of \p doc: the rendered value, or the error
/// text with its offset. A document that parses also streams through
/// the cursor.
std::string outcome_of(std::string_view doc) {
    try {
        std::string out = "ok " + render(parse_json(doc));
        JsonReader r{doc};
        r.skip();
        r.finish();
        return out;
    } catch (const JsonError& e) {
        return std::string{"error "} + e.what();
    }
}

/// Random byte mutations of every document shape the repo reads: each
/// mutant must parse or throw JsonError; any other exception or a crash
/// fails the run. The digest of every outcome (value, or error text and
/// offset) is pinned, so a reader change that moves an error fails here.
TEST(Json, MutationSweepNeverCrashes) {
    EventLog log;
    log.emit(EventKind::kBusPublish,
             mcps::sim::SimTime::origin() + mcps::sim::SimDuration::micros(7),
             "oxi\"1", "vitals/bed1/spo2\n", 0.25);
    std::ostringstream jsonl;
    write_jsonl(log, jsonl);
    std::string event_line = jsonl.str();
    event_line.pop_back();  // newline

    const std::string seeds[] = {
        event_line,
        R"({"bench":"e1_pca_interlock","seed":42,"metrics":[)"
        R"({"name":"severe_rate","value":0.25,"unit":"fraction"},)"
        R"({"name":"nan_metric","value":null,"unit":"ms"}]})",
        R"({"$schema":"https://json.schemastore.org/sarif-2.1.0.json",)"
        R"("version":"2.1.0","runs":[{"tool":{"driver":{"name":"mcps_analyze",)"
        R"("rules":[{"id":"TA1","shortDescription":{"text":"reach"}}]}},)"
        R"("results":[{"ruleId":"TA1","level":"error","message":{"text":)"
        R"("m: \"x\""},"locations":[{"physicalLocation":{"artifactLocation":)"
        R"({"uri":"a.cpp"},"region":{"startLine":3}}}]}]}]})",
        R"({"scenario": "pca", "seed": 42, "minutes": 30, "overrides": )"
        R"({"demand": "proxy", "interlock": "dual"}})",
    };
    for (const std::string& seed : seeds) {
        ASSERT_FALSE(rejects(seed)) << seed << ": " << error_of(seed);
    }

    std::mt19937_64 rng{20261017};
    std::uint64_t parsed = 0, rejected = 0;
    std::uint64_t digest = mcps::sim::kFnvOffset;
    for (int iter = 0; iter < 8000; ++iter) {
        std::string doc = seeds[static_cast<std::size_t>(iter) %
                                std::size(seeds)];
        const int mutations = 1 + static_cast<int>(rng() % 4);
        for (int m = 0; m < mutations; ++m) {
            const std::size_t at = rng() % doc.size();
            switch (rng() % 5) {
                case 0: doc[at] = static_cast<char>(rng() & 0xFF); break;
                case 1: doc.erase(at, 1); break;
                case 2: doc.insert(at, doc.substr(at, rng() % 8 + 1)); break;
                case 3:  // open a burst of containers
                    doc.insert(at, std::string(rng() % 40 + 1,
                                               rng() % 2 ? '[' : '{'));
                    break;
                default: doc.resize(at); break;
            }
            if (doc.empty()) doc.push_back('x');
        }
        const std::string outcome = outcome_of(doc);
        ++(outcome.starts_with("ok ") ? parsed : rejected);
        digest = mcps::sim::fnv1a64(digest, outcome);
    }
    EXPECT_GT(rejected, 0U);
    EXPECT_GT(parsed, 0U);

    for (int iter = 0; iter < 2000; ++iter) {
        std::string doc(rng() % 200, '\0');
        for (char& c : doc) c = static_cast<char>(rng() & 0xFF);
        digest = mcps::sim::fnv1a64(digest, outcome_of(doc));
    }
    // Pinned from the byte-at-a-time string scan: a faster reader must
    // not move any value or error.
    EXPECT_EQ(digest, 0xcb60a1fc2275f6f2ULL);
}

}  // namespace
