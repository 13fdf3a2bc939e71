/// \file test_protocol.cpp
/// \brief Wire-protocol unit tests: strict parsing, round-trips, and a
/// fuzz-style mutation sweep asserting the parser is total (every
/// malformed line maps to a ProtocolError, never a crash or hang).

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "scenario/scenario.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace mcps;
using namespace mcps::serve;

Request parse_ok(const std::string& line) {
    return parse_request(line);
}

std::string parse_error_code(const std::string& line) {
    try {
        (void)parse_request(line);
    } catch (const ProtocolError& e) {
        return e.code;
    }
    return "";  // parsed fine
}

TEST(Protocol, ParsesMinimalRunRequest) {
    const Request r =
        parse_ok(R"({"id":"r1","spec":{"scenario":"pca"}})");
    EXPECT_EQ(r.kind, Request::Kind::kRun);
    EXPECT_EQ(r.id, "r1");
    EXPECT_EQ(r.spec.name, "pca");
    EXPECT_EQ(r.qos, QosClass::kInteractive);
    EXPECT_FALSE(r.no_cache);
}

TEST(Protocol, ParsesFullRunRequest) {
    const Request r = parse_ok(
        R"({"id":"a.b:c-d_9","spec":{"scenario":"xray","seed":7,)"
        R"("minutes":3,"overrides":{"procedures":"5"}},)"
        R"("class":"clinical","no_cache":true})");
    EXPECT_EQ(r.id, "a.b:c-d_9");
    EXPECT_EQ(r.spec.seed, 7u);
    EXPECT_EQ(r.spec.minutes, 3u);
    ASSERT_EQ(r.spec.overrides.size(), 1u);
    EXPECT_EQ(r.qos, QosClass::kClinical);
    EXPECT_TRUE(r.no_cache);
}

TEST(Protocol, ParsesCommands) {
    EXPECT_EQ(parse_ok(R"({"id":"c1","cmd":"ping"})").kind,
              Request::Kind::kPing);
    EXPECT_EQ(parse_ok(R"({"id":"c2","cmd":"stats"})").kind,
              Request::Kind::kStats);
    EXPECT_EQ(parse_ok(R"({"id":"c3","cmd":"drain"})").kind,
              Request::Kind::kDrain);
}

TEST(Protocol, RequestRoundTripsThroughToLine) {
    Request r;
    r.kind = Request::Kind::kRun;
    r.id = "rt1";
    r.spec = scenario::parse_spec("pca seed=9 minutes=2 demand=proxy");
    r.qos = QosClass::kBatch;
    r.no_cache = true;
    const Request back = parse_ok(r.to_line());
    EXPECT_EQ(back.id, r.id);
    EXPECT_EQ(back.spec, r.spec);
    EXPECT_EQ(back.qos, r.qos);
    EXPECT_EQ(back.no_cache, r.no_cache);
}

TEST(Protocol, RejectsStructuralGarbage) {
    EXPECT_EQ(parse_error_code(""), "bad-request");
    EXPECT_EQ(parse_error_code("not json"), "bad-request");
    EXPECT_EQ(parse_error_code("{"), "bad-request");
    EXPECT_EQ(parse_error_code(R"({"id":"x")"), "bad-request");
    EXPECT_EQ(parse_error_code(R"({"id":"x"} trailing)"), "bad-request");
    EXPECT_EQ(parse_error_code(R"([1,2,3])"), "bad-request");
}

TEST(Protocol, RejectsUnknownAndDuplicateFields) {
    EXPECT_EQ(parse_error_code(
                  R"({"id":"x","cmd":"ping","surprise":1})"),
              "bad-request");
    EXPECT_EQ(parse_error_code(
                  R"({"id":"x","id":"y","cmd":"ping"})"),
              "bad-request");
}

TEST(Protocol, RejectsBadIds) {
    EXPECT_EQ(parse_error_code(R"({"id":"sp ace","cmd":"ping"})"),
              "bad-request");
    EXPECT_EQ(parse_error_code(R"({"id":"q\"uote","cmd":"ping"})"),
              "bad-request");
    const std::string long_id(65, 'a');
    EXPECT_EQ(parse_error_code(R"({"id":")" + long_id +
                               R"(","cmd":"ping"})"),
              "bad-request");
}

TEST(Protocol, RequiresExactlyOneOfSpecOrCmd) {
    EXPECT_EQ(parse_error_code(R"({"id":"x"})"), "bad-request");
    EXPECT_EQ(parse_error_code(
                  R"({"id":"x","cmd":"ping","spec":{"scenario":"pca"}})"),
              "bad-request");
}

TEST(Protocol, BadSpecIsItsOwnErrorCode) {
    EXPECT_EQ(parse_error_code(R"({"id":"x","spec":{"nope":1}})"),
              "bad-spec");
    EXPECT_EQ(parse_error_code(R"({"id":"x","spec":{"scenario":""}})"),
              "bad-spec");
    // Well-formed JSON of the wrong kind inside the spec is the spec's.
    EXPECT_EQ(parse_error_code(R"({"id":"x","spec":{"scenario":5}})"),
              "bad-spec");
    EXPECT_EQ(parse_error_code(
                  R"({"id":"x","spec":{"scenario":"pca","seed":1.5}})"),
              "bad-spec");
    // Structurally broken spec never reaches the spec parser.
    EXPECT_EQ(parse_error_code(R"({"id":"x","spec":[1]})"), "bad-request");
    EXPECT_EQ(parse_error_code(R"({"id":"x","spec":{"scenario" "pca"}})"),
              "bad-request");
}

TEST(Protocol, RejectsNonUtf8AndDeepNesting) {
    std::string bad = R"({"id":"x","cmd":"ping"})";
    bad[10] = static_cast<char>(0xFF);
    EXPECT_EQ(parse_error_code(bad), "bad-request");
    // Overlong encoding of '/' (0xC0 0xAF) is not valid UTF-8.
    EXPECT_EQ(parse_error_code("{\"id\":\"\xC0\xAF\",\"cmd\":\"ping\"}"),
              "bad-request");
    std::string deep = R"({"id":"x","spec":)";
    for (int i = 0; i < 64; ++i) deep += R"({"a":)";
    EXPECT_EQ(parse_error_code(deep), "bad-request");
}

TEST(Protocol, Utf8Validator) {
    EXPECT_TRUE(utf8_valid("plain ascii"));
    EXPECT_TRUE(utf8_valid("caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x92\x89"));
    EXPECT_FALSE(utf8_valid("\x80"));            // bare continuation
    EXPECT_FALSE(utf8_valid("\xC3"));            // truncated sequence
    EXPECT_FALSE(utf8_valid("\xED\xA0\x80"));    // UTF-16 surrogate
    EXPECT_FALSE(utf8_valid("\xF4\x90\x80\x80"));  // > U+10FFFF
}

TEST(Protocol, ResponsesRoundTrip) {
    const Response ok = parse_response(
        ok_run_response("r1", true, 12, 345, R"({"fingerprint":"0xabc"})"));
    EXPECT_TRUE(ok.ok());
    EXPECT_TRUE(ok.cached);
    EXPECT_EQ(ok.queue_us, 12u);
    EXPECT_EQ(ok.run_us, 345u);
    EXPECT_EQ(artifacts_fingerprint(ok.artifacts), "0xabc");

    const Response pong = parse_response(pong_response("c1"));
    EXPECT_TRUE(pong.pong);

    const Response rej = parse_response(error_response(
        "r2", "rejected", "overloaded", "queue full \"now\"\n"));
    EXPECT_TRUE(rej.rejected());
    EXPECT_EQ(rej.error_code, "overloaded");
    EXPECT_EQ(rej.error_message, "queue full \"now\"\n");
}

TEST(Protocol, ArtifactsLineMatchesRegistryRun) {
    const auto spec = scenario::registry().default_spec("pca");
    auto pinned = spec;
    pinned.minutes = 1;
    const auto a = scenario::registry().run(pinned);
    const std::string line = artifacts_json_line(a);
    EXPECT_EQ(artifacts_fingerprint(line), a.fingerprint_hex());
    // Single-line and parseable as a raw response payload.
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const Response r = parse_response(ok_run_response("x", false, 0, 0, line));
    EXPECT_EQ(r.artifacts, line);
}

/// Fuzz-style totality sweep: random byte mutations of valid request
/// lines (plus pure garbage) must parse or throw ProtocolError — any
/// other exception or a crash fails the test run itself.
TEST(Protocol, MutationSweepNeverCrashes) {
    const std::string seeds[] = {
        R"({"id":"r1","spec":{"scenario":"pca","seed":42,"minutes":1,)"
        R"("overrides":{"demand":"proxy"}},"class":"batch"})",
        R"({"id":"c1","cmd":"ping"})",
        R"({"id":"r2","spec":{"scenario":"xray"},"no_cache":true})",
    };
    std::mt19937_64 rng{20260808};
    std::uint64_t parsed = 0, rejected = 0;
    for (int iter = 0; iter < 4000; ++iter) {
        std::string line = seeds[static_cast<std::size_t>(iter) %
                                 std::size(seeds)];
        const int mutations = 1 + static_cast<int>(rng() % 4);
        for (int m = 0; m < mutations; ++m) {
            const std::size_t at = rng() % line.size();
            switch (rng() % 4) {
                case 0:  // flip to an arbitrary byte (incl. non-UTF8)
                    line[at] = static_cast<char>(rng() & 0xFF);
                    break;
                case 1:  // delete
                    line.erase(at, 1);
                    break;
                case 2:  // duplicate a chunk
                    line.insert(at, line.substr(at, rng() % 8 + 1));
                    break;
                default:  // truncate
                    line.resize(at);
                    break;
            }
            if (line.empty()) line.push_back('x');
        }
        try {
            (void)parse_request(line);
            ++parsed;
        } catch (const ProtocolError&) {
            ++rejected;
        }
        // Anything else propagates and fails the test.
    }
    EXPECT_GT(rejected, 0u);
    // A few mutations (e.g. digit swaps inside numbers) stay valid.
    EXPECT_GT(parsed + rejected, 0u);

    // Pure garbage bytes, any length.
    for (int iter = 0; iter < 2000; ++iter) {
        std::string line(rng() % 200, '\0');
        for (char& c : line) c = static_cast<char>(rng() & 0xFF);
        try {
            (void)parse_request(line);
        } catch (const ProtocolError&) {
        }
    }
}

}  // namespace
