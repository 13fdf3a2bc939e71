/// \file test_obs.cpp
/// \brief Unit tests for the observability layer: event log, metrics
/// registry, deterministic formatting, and the JSONL / Chrome / bench
/// exporters.

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/format.hpp"
#include "obs/obs.hpp"

namespace {

using namespace mcps::obs;
using mcps::sim::SimDuration;
using mcps::sim::SimTime;
using namespace mcps::sim::literals;

SimTime at(SimDuration d) { return SimTime::origin() + d; }

// ---- events & log ----------------------------------------------------

TEST(Event, KindNamesRoundTrip) {
    for (auto k : {EventKind::kScenarioStart, EventKind::kScenarioEnd,
                   EventKind::kBusPublish, EventKind::kBusDeliver,
                   EventKind::kBusDrop, EventKind::kSupervisorState,
                   EventKind::kPumpCommand, EventKind::kInterlockTrip,
                   EventKind::kFaultInject, EventKind::kShardStart,
                   EventKind::kShardEnd, EventKind::kDeviceState,
                   EventKind::kAlarm, EventKind::kClinician,
                   EventKind::kAppState}) {
        const auto name = to_string(k);
        const auto back = event_kind_from(name);
        ASSERT_TRUE(back.has_value()) << name;
        EXPECT_EQ(*back, k);
    }
    EXPECT_FALSE(event_kind_from("no_such_kind").has_value());
}

TEST(EventLog, EmitAppendCount) {
    EventLog a;
    a.emit(EventKind::kBusPublish, at(1_s), "oxi1", "vitals/bed1/spo2", 1.0);
    a.emit(EventKind::kBusDeliver, at(1_s), "pump1", "vitals/bed1/spo2", 1.0);
    EventLog b;
    b.emit(EventKind::kInterlockTrip, at(2_s), "ilk", "stop/x", 1.0);
    a.append(b);
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a.count(EventKind::kBusPublish), 1u);
    EXPECT_EQ(a.count(EventKind::kInterlockTrip), 1u);
    EXPECT_EQ(a.count(EventKind::kShardStart), 0u);
    EXPECT_EQ(a.symbol(a.events().back().source), "ilk");
}

TEST(EventLog, EmitOfInternedIdsChecksThem) {
    EventLog log;
    const SymbolId src = log.intern("oxi1");
    const SymbolId detail = log.intern("vitals/bed1/spo2");
    log.emit(Event{EventKind::kBusPublish, at(1_s), src, detail, 1.0});
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log.symbol(log.events()[0].detail), "vitals/bed1/spo2");
    EXPECT_THROW(log.emit(Event{EventKind::kBusPublish, at(1_s), src, 2, 1.0}),
                 std::out_of_range);
    EXPECT_THROW(log.emit(Event{EventKind::kBusPublish, at(1_s), 7, src, 1.0}),
                 std::out_of_range);
    EXPECT_EQ(log.size(), 1u);
}

TEST(EventLog, FingerprintIsOrderAndValueExact) {
    EventLog a, b;
    a.emit(EventKind::kBusPublish, at(1_s), "x", "t", 1.0);
    a.emit(EventKind::kBusDeliver, at(2_s), "y", "t", 2.0);
    b.emit(EventKind::kBusDeliver, at(2_s), "y", "t", 2.0);
    b.emit(EventKind::kBusPublish, at(1_s), "x", "t", 1.0);
    EXPECT_NE(a.fingerprint(), b.fingerprint());  // order matters

    EventLog c;
    c.emit(EventKind::kBusPublish, at(1_s), "x", "t", 1.0);
    c.emit(EventKind::kBusDeliver, at(2_s), "y", "t", 2.0);
    EXPECT_EQ(a.fingerprint(), c.fingerprint());

    c.clear();
    c.emit(EventKind::kBusPublish, at(1_s), "x", "t", 1.0);
    c.emit(EventKind::kBusDeliver, at(2_s), "y", "t", 2.0000000001);
    EXPECT_NE(a.fingerprint(), c.fingerprint());  // values matter
}

TEST(EventLog, SymbolsInternInFirstAppearanceOrder) {
    EventLog log;
    log.emit(EventKind::kBusPublish, at(1_s), "oxi1", "vitals", 1.0);
    log.emit(EventKind::kBusDeliver, at(1_s), "pump1", "vitals", 1.0);
    log.emit(EventKind::kBusPublish, at(2_s), "oxi1", "oxi1", 2.0);
    ASSERT_EQ(log.symbol_count(), 3u);
    EXPECT_EQ(log.symbol(0), "oxi1");
    EXPECT_EQ(log.symbol(1), "vitals");
    EXPECT_EQ(log.symbol(2), "pump1");
    // One table serves source and detail: "oxi1" is one id in both.
    EXPECT_EQ(log.events()[2].source, log.events()[2].detail);

    // A copy owns its table; growing it leaves the original intact.
    EventLog copy = log;
    copy.emit(EventKind::kBusDrop, at(3_s), "new", "topic");
    EXPECT_EQ(log.symbol_count(), 3u);
    EXPECT_EQ(copy.symbol(copy.events().back().detail), "topic");
    EXPECT_EQ(copy.symbol(copy.events().front().source), "oxi1");

    log.clear();
    EXPECT_EQ(log.symbol_count(), 0u);
    log.emit(EventKind::kBusDrop, at(1_s), "b", "a");
    EXPECT_EQ(log.symbol(0), "b");
}

TEST(EventLog, InternSurvivesManySymbols) {
    EventLog log;
    for (int i = 0; i < 5000; ++i) {
        log.emit(EventKind::kBusPublish, at(1_s), "src" + std::to_string(i),
                 "shared", static_cast<double>(i));
    }
    ASSERT_EQ(log.symbol_count(), 5001u);
    for (int i = 0; i < 5000; ++i) {
        const Event& e = log.events()[static_cast<std::size_t>(i)];
        ASSERT_EQ(log.symbol(e.source), "src" + std::to_string(i));
        ASSERT_EQ(log.symbol(e.detail), "shared");
        ASSERT_EQ(log.intern("src" + std::to_string(i)), e.source);
    }
    EXPECT_EQ(log.symbol_count(), 5001u);  // lookups add nothing
}

/// The ward shard merge: appending logs whose tables share some symbols
/// and not others must equal emitting every event into one log — same
/// events, same ids, same fingerprint, same JSONL.
TEST(EventLog, AppendRemapsSymbolsLikeOneLog) {
    struct Rec {
        EventKind kind;
        SimTime t;
        const char* src;
        const char* detail;
        double value;
    };
    const std::vector<Rec> shard_a = {
        {EventKind::kShardStart, at(0_s), "ward", "shard", 0.0},
        {EventKind::kBusPublish, at(1_s), "oxi1", "vitals/bed1/spo2", 1.0},
        {EventKind::kBusDeliver, at(1_s), "pump1", "vitals/bed1/spo2", 1.0},
    };
    const std::vector<Rec> shard_b = {
        {EventKind::kShardStart, at(0_s), "ward", "shard", 1.0},
        {EventKind::kInterlockTrip, at(5_s), "ilk", "stop/spo2", 1.0},
        {EventKind::kBusPublish, at(6_s), "oxi1", "vitals/bed2/spo2", 2.0},
        {EventKind::kPumpCommand, at(7_s), "pump1", "ward", 3.0},
    };
    const auto fill = [](EventLog& log, const std::vector<Rec>& recs) {
        for (const Rec& r : recs) {
            log.emit(r.kind, r.t, r.src, r.detail, r.value);
        }
    };
    EventLog a, b, one;
    fill(a, shard_a);
    fill(b, shard_b);
    fill(one, shard_a);
    fill(one, shard_b);

    EventLog merged;
    merged.append(a);
    merged.append(b);
    ASSERT_EQ(merged.size(), one.size());
    for (std::size_t i = 0; i < one.size(); ++i) {  // ids match too
        EXPECT_EQ(merged.events()[i].source, one.events()[i].source) << i;
        EXPECT_EQ(merged.events()[i].detail, one.events()[i].detail) << i;
    }
    EXPECT_TRUE(merged == one);
    EXPECT_EQ(merged.symbol_count(), one.symbol_count());
    EXPECT_EQ(merged.fingerprint(), one.fingerprint());
    std::string merged_text, one_text;
    write_jsonl(merged, merged_text);
    write_jsonl(one, one_text);
    EXPECT_EQ(merged_text, one_text);

    // Appending a log to itself doubles it.
    EventLog twice = a;
    twice.append(twice);
    ASSERT_EQ(twice.size(), 2 * a.size());
    EXPECT_EQ(twice.symbol_count(), a.symbol_count());
    EXPECT_EQ(twice.symbol(twice.events().back().detail),
              "vitals/bed1/spo2");
}

// ---- deterministic formatting ----------------------------------------

TEST(Format, NumbersAreDeterministic) {
    EXPECT_EQ(format_number(0.0), "0");
    EXPECT_EQ(format_number(17.0), "17");
    EXPECT_EQ(format_number(-3.0), "-3");
    EXPECT_EQ(format_number(0.5), "0.5");
    EXPECT_EQ(format_number(std::nan("")), "null");
    EXPECT_EQ(format_number(std::numeric_limits<double>::infinity()), "null");
    // %.17g round-trips doubles exactly.
    const double v = 0.1 + 0.2;
    EXPECT_EQ(std::stod(format_number(v)), v);
}

/// std::to_chars is specified as printf in the C locale: the formatter
/// must give the bytes of "%lld" / "%.17g" for every double.
TEST(Format, NumbersMatchPrintf) {
    const auto by_printf = [](double v) {
        if (!std::isfinite(v)) return std::string{"null"};
        char buf[40];
        if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
            std::snprintf(buf, sizeof buf, "%lld",
                          static_cast<long long>(v));
        } else {
            std::snprintf(buf, sizeof buf, "%.17g", v);
        }
        return std::string{buf};
    };
    std::vector<double> values = {
        0.0, -0.0, 1e-300, -1e300, 5e-324, 2.2250738585072014e-308,
        -2.2250738585072014e-308, 1.7976931348623157e308,
        9.007199254740991e15, 9.007199254740992e15, -9.007199254740992e15,
        1e21, 123456.789, 0.1, 1.0 / 3.0, -0.5, 1e-5,
        12345678901234567890.0};
    std::mt19937_64 rng{20261017};
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t bits = rng();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        values.push_back(v);
        values.push_back(static_cast<double>(static_cast<std::int64_t>(bits) >>
                                             (bits % 64)));
        values.push_back(static_cast<double>(bits % 100000) / 1000.0);
    }
    for (const double v : values) {
        ASSERT_EQ(format_number(v), by_printf(v)) << std::hexfloat << v;
        std::string appended = "x";
        append_number(appended, v);
        ASSERT_EQ(appended.substr(1), by_printf(v));
    }
}

TEST(Format, JsonEscapesControlAndQuotes) {
    EXPECT_EQ(json_escape("plain/topic"), "plain/topic");
    EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json_escape("x\n\t"), "x\\n\\t");
    EXPECT_EQ(json_escape(std::string{"\x01"}), "\\u0001");
    EXPECT_EQ(json_escape(std::string{"a\x1f\bb\x7f"}),
              "a\\u001f\\u0008b\x7f");
    std::string out = "k=";
    append_json_escaped(out, "\"q\"");
    EXPECT_EQ(out, "k=\\\"q\\\"");
}

// ---- metrics registry ------------------------------------------------

TEST(Metrics, CountersAccumulateAndMerge) {
    MetricsRegistry a, b;
    a.counter("bus/published").add(3);
    b.counter("bus/published").add(4);
    b.counter("bus/dropped").add(1);
    a.merge(b);
    EXPECT_EQ(a.find_counter("bus/published")->value(), 7u);
    EXPECT_EQ(a.find_counter("bus/dropped")->value(), 1u);
    EXPECT_EQ(a.counter_count(), 2u);
    EXPECT_EQ(a.find_counter("absent"), nullptr);
}

TEST(Metrics, GaugeMergeLaterSetWins) {
    MetricsRegistry a, b, c;
    a.gauge("level").set(1.0);
    b.gauge("level").set(2.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.find_gauge("level")->value(), 2.0);
    EXPECT_EQ(a.find_gauge("level")->sets(), 2u);
    // A never-set gauge in the merged-in registry must not clobber.
    (void)c.gauge("level");
    a.merge(c);
    EXPECT_DOUBLE_EQ(a.find_gauge("level")->value(), 2.0);
}

TEST(Metrics, HistogramsMergeExactly) {
    MetricsRegistry a, b;
    a.histogram("lat", 0.0, 10.0, 10).add(1.5);
    b.histogram("lat", 0.0, 10.0, 10).add(2.5);
    b.histogram("lat", 0.0, 10.0, 10).add(11.0);  // overflow
    a.merge(b);
    const auto* h = a.find_histogram("lat");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->total(), 3u);
}

TEST(Metrics, HistogramBinningMismatchThrows) {
    MetricsRegistry a;
    (void)a.histogram("h", 0.0, 10.0, 10);
    EXPECT_THROW((void)a.histogram("h", 0.0, 20.0, 10), std::invalid_argument);

    MetricsRegistry b;
    (void)b.histogram("h", 0.0, 10.0, 20);
    EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Metrics, MergeOrderIndependentFingerprint) {
    // Counters and histograms commute; two shards merged in the same
    // order as one combined registry built sequentially.
    MetricsRegistry s1, s2, merged, combined;
    s1.counter("c").add(1);
    s1.histogram("h", 0.0, 1.0, 4).add(0.25);
    s2.counter("c").add(2);
    s2.histogram("h", 0.0, 1.0, 4).add(0.75);
    merged.merge(s1);
    merged.merge(s2);
    combined.counter("c").add(3);
    combined.histogram("h", 0.0, 1.0, 4).add(0.25);
    combined.histogram("h", 0.0, 1.0, 4).add(0.75);
    EXPECT_EQ(merged.fingerprint(), combined.fingerprint());
}

TEST(Metrics, JsonAndTableExportAreStable) {
    MetricsRegistry r;
    r.counter("z/count").add(2);
    r.counter("a/count").add(1);
    r.gauge("g").set(1.5);
    r.histogram("h", 0.0, 2.0, 2).add(0.5);

    std::ostringstream j1, j2, t;
    r.write_json(j1);
    r.write_json(j2);
    EXPECT_EQ(j1.str(), j2.str());
    // Sorted name order: "a/count" before "z/count".
    EXPECT_LT(j1.str().find("a/count"), j1.str().find("z/count"));
    r.write_table(t);
    EXPECT_NE(t.str().find("a/count"), std::string::npos);
}

// ---- JSONL round trip ------------------------------------------------

TEST(Jsonl, WriteReadRoundTripIsExact) {
    EventLog log;
    log.emit(EventKind::kScenarioStart, at(0_s), "pca", "closed-loop", 42.0);
    log.emit(EventKind::kBusPublish, at(1_s), "oxi1", "vitals/bed1/spo2",
             17.0);
    log.emit(EventKind::kFaultInject, at(90_s), "oxi1", "oxi_dropout", 0.25);
    log.emit(EventKind::kPumpCommand, at(100_s), "pump1",
             "stop_infusion:stopped", 1.0);
    log.emit(EventKind::kScenarioEnd, at(7200_s), "pca", "ok", 25019.0);

    std::ostringstream os;
    write_jsonl(log, os);
    std::istringstream is{os.str()};
    const EventLog back = read_jsonl(is);
    ASSERT_EQ(back.size(), log.size());
    EXPECT_TRUE(back == log);
    EXPECT_EQ(back.fingerprint(), log.fingerprint());

    std::ostringstream os2;
    write_jsonl(back, os2);
    EXPECT_EQ(os.str(), os2.str());  // byte-exact round trip
}

TEST(Jsonl, EscapedStringsSurvive) {
    EventLog log;
    log.emit(EventKind::kSupervisorState, at(1_s), "sup \"one\"",
             "line\nbreak\tand\\slash", 0.0);
    std::ostringstream os;
    write_jsonl(log, os);
    std::istringstream is{os.str()};
    const EventLog back = read_jsonl(is);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back.symbol(back.events()[0].source), "sup \"one\"");
    EXPECT_EQ(back.symbol(back.events()[0].detail),
              "line\nbreak\tand\\slash");
}

TEST(Jsonl, RejectsMalformedLinesWithLineNumber) {
    const char* bad_lines[] = {
        "not json",
        // t_us must be an integer within int64, not a double cast to one.
        "{\"t_us\":1e300,\"kind\":\"bus_publish\",\"src\":\"a\","
        "\"detail\":\"t\",\"value\":1}",
        // value must be a number or null, not silently NaN.
        "{\"t_us\":0,\"kind\":\"bus_publish\",\"src\":\"a\","
        "\"detail\":\"t\",\"value\":\"oops\"}",
    };
    for (const char* bad : bad_lines) {
        std::istringstream is{
            "{\"t_us\":0,\"kind\":\"bus_publish\",\"src\":\"a\","
            "\"detail\":\"t\",\"value\":1}\n" +
            std::string{bad} + "\n"};
        try {
            (void)read_jsonl(is);
            FAIL() << "expected std::runtime_error for " << bad;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos)
                << e.what();
        }
    }
}

TEST(Jsonl, RejectsUnknownKind) {
    std::istringstream is{
        "{\"t_us\":0,\"kind\":\"warp_drive\",\"src\":\"a\","
        "\"detail\":\"t\",\"value\":1}\n"};
    EXPECT_THROW((void)read_jsonl(is), std::runtime_error);
}

/// write_jsonl's exact line shape and any other spelling of the same
/// object (whitespace, key order, escapes, unknown keys) read to the
/// same log.
TEST(Jsonl, AnySpellingOfALineReadsTheSame) {
    const std::string canonical =
        "{\"t_us\":5,\"kind\":\"bus_publish\",\"src\":\"a\","
        "\"detail\":\"t/x\",\"value\":1.5}\n"
        "{\"t_us\":-7,\"kind\":\"bus_drop\",\"src\":\"t/x\","
        "\"detail\":\"a\",\"value\":null}\n";
    const std::string respelled =
        "{ \"value\":1.5e0, \"detail\":\"t\\/x\",\"src\":\"\\u0061\","
        "\"kind\":\"bus_publish\",\"t_us\":5, \"extra\":[1,{}]}\r\n"
        "\n"
        "\t{\"t_us\":-7,\"kind\":\"bus_drop\",\"src\":\"t/x\","
        "\"detail\":\"a\",\"value\":null} \n";
    const EventLog a = read_jsonl(canonical);
    const EventLog b = read_jsonl(respelled);
    ASSERT_EQ(a.size(), 2u);
    EXPECT_TRUE(a == b);
    std::string text;
    write_jsonl(b, text);
    EXPECT_EQ(text, canonical);
    std::istringstream is{respelled};
    EXPECT_TRUE(read_jsonl(is) == a);
}

/// read_jsonl's log of \p text, or nullopt if it threw.
std::optional<EventLog> try_read_jsonl(std::string_view text) {
    try {
        return read_jsonl(text);
    } catch (const std::runtime_error&) {
        return std::nullopt;
    }
}

/// read_jsonl's error text for \p text, or "" if it read.
std::string jsonl_error(std::string_view text) {
    try {
        (void)read_jsonl(text);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

/// read_jsonl reads write_jsonl's own line shape directly and any other
/// spelling through JsonReader; a leading space is enough to force the
/// second path. Over canonical lines of every kind, and every
/// single-byte deletion or substitution of them, the two paths accept
/// the same lines into the same logs and reject the same lines.
TEST(Jsonl, CanonicalDecoderAgreesWithReaderUnderMutation) {
    const double values[] = {
        std::numeric_limits<double>::quiet_NaN(), -3.0, 0.0, 0.1, -2.5e-7,
        1e300, 9.007199254740993e15, 42.0,
        std::numeric_limits<double>::denorm_min()};
    const std::int64_t times[] = {0, -1, 1'000'000,
                                  std::numeric_limits<std::int64_t>::max()};
    const std::size_t kinds = static_cast<std::size_t>(EventKind::kAppState) + 1;
    // Three lines per kind; the values and times cycle through all.
    EventLog log;
    for (std::size_t i = 0; i < 3 * kinds; ++i) {
        log.emit(static_cast<EventKind>(i / 3),
                 at(SimDuration::micros(times[i % std::size(times)])),
                 i % 2 ? "pump1" : "a", i % 3 ? "vitals/x-1" : "",
                 values[i % std::size(values)]);
    }
    std::string text;
    write_jsonl(log, text);
    const std::optional<EventLog> whole = try_read_jsonl(text);
    ASSERT_TRUE(whole.has_value());
    EXPECT_TRUE(*whole == log);
    EXPECT_EQ(whole->fingerprint(), log.fingerprint());

    // Lines of the canonical shape whose numbers write_jsonl never
    // spells so: -0 must keep its sign bit on both paths.
    text += "{\"t_us\":-0,\"kind\":\"alarm\",\"src\":\"a\",\"detail\":\"b\","
            "\"value\":-0}\n"
            "{\"t_us\":7,\"kind\":\"alarm\",\"src\":\"b\",\"detail\":\"a\","
            "\"value\":-0.0e0}\n"
            "{\"t_us\":7,\"kind\":\"alarm\",\"src\":\"b\",\"detail\":\"a\","
            "\"value\":1.50E+3}\n";
    const std::optional<EventLog> negative_zero =
        try_read_jsonl(text.substr(text.rfind("{\"t_us\":-0")));
    ASSERT_TRUE(negative_zero.has_value());
    EXPECT_TRUE(std::signbit(negative_zero->events()[0].value));

    const std::string_view subs = "\"\\},:-.e0 \n";
    std::size_t accepted = 0, rejected = 0;
    // Each mutant is read alone, and after its unmutated line, which
    // leaves that line's segment in the decoder's table: a mutant one
    // byte off a held segment, or a held segment beside a bad t_us or
    // value token, must read as it does with the table cold.
    const auto check = [&](const std::string& line,
                           const std::string& mutant) {
        const std::optional<EventLog> direct = try_read_jsonl(mutant);
        const std::optional<EventLog> reader = try_read_jsonl(" " + mutant);
        ASSERT_EQ(direct.has_value(), reader.has_value()) << mutant;
        const std::optional<EventLog> warm =
            try_read_jsonl(line + "\n" + mutant);
        const std::optional<EventLog> warm_reader =
            try_read_jsonl(line + "\n " + mutant);
        ASSERT_EQ(warm.has_value(), warm_reader.has_value()) << mutant;
        if (!direct) {
            ++rejected;
            // The same error, one line further down.
            ASSERT_FALSE(warm.has_value()) << mutant;
            const std::string cold = jsonl_error(mutant);
            const std::string_view head = "jsonl line ";
            ASSERT_EQ(cold.rfind(head, 0), 0u) << cold;
            std::size_t n = 0;
            const auto [rest, ec] =
                std::from_chars(cold.data() + head.size(),
                                cold.data() + cold.size(), n);
            ASSERT_EQ(ec, std::errc{}) << cold;
            EXPECT_EQ(jsonl_error(line + "\n" + mutant),
                      std::string{head} + std::to_string(n + 1) + rest)
                << mutant;
            return;
        }
        ++accepted;
        EXPECT_TRUE(*direct == *reader) << mutant;
        EXPECT_EQ(direct->fingerprint(), reader->fingerprint()) << mutant;
        ASSERT_TRUE(warm.has_value()) << mutant;
        EXPECT_TRUE(*warm == *warm_reader) << mutant;
        EXPECT_EQ(warm->fingerprint(), warm_reader->fingerprint()) << mutant;
    };
    for (std::size_t begin = 0; begin < text.size();) {
        const std::size_t end = text.find('\n', begin);
        const std::string line = text.substr(begin, end - begin);
        begin = end + 1;
        check(line, line);
        for (std::size_t i = 0; i < line.size(); ++i) {
            std::string mutant = line;
            check(line, mutant.erase(i, 1));
            for (const char c : subs) {
                if (c == line[i]) continue;
                mutant = line;
                mutant[i] = c;
                check(line, mutant);
            }
        }
    }
    // The sweep reaches both outcomes, not only one.
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 1000u);
}

// ---- Chrome trace ----------------------------------------------------

TEST(ChromeTrace, EmitsLanesAndInstantEvents) {
    EventLog log;
    log.emit(EventKind::kBusPublish, at(1_s), "oxi1", "vitals", 1.0);
    log.emit(EventKind::kBusDeliver, at(2_s), "pump1", "vitals", 1.0);
    log.emit(EventKind::kBusPublish, at(3_s), "oxi1", "vitals", 2.0);
    std::ostringstream os;
    write_chrome_trace(log, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("thread_name"), std::string::npos);
    EXPECT_NE(out.find("\"oxi1\""), std::string::npos);
    EXPECT_NE(out.find("\"pump1\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    // Two sources -> two lanes (tids 1 and 2).
    EXPECT_NE(out.find("\"tid\":2"), std::string::npos);

    std::string appended;
    write_chrome_trace(log, appended);
    EXPECT_EQ(appended, out);

    std::ostringstream empty;
    write_chrome_trace(EventLog{}, empty);
    EXPECT_EQ(empty.str(), "{\"traceEvents\":[\n]}\n");
}

/// A log whose events each have their own (kind, src, detail) triple,
/// far more than the exporters' fragment tables and read_jsonl's
/// segment table hold, then a second pass over some of the same triples
/// (held and not). Symbols need every escape and carry UTF-8; times and
/// values take the extremes.
EventLog all_distinct_triples_log() {
    const std::string sources[] = {
        "a", "pump1", "q\"uote", "back\\slash", std::string{"c\x01\x1f"},
        "nl\n\ttab\r", "utf8 \xc3\xa9\xe2\x86\x92", ""};
    const std::string details[] = {"vitals/x-", "", "\"", "\\\\",
                                   std::string{"\x7f\x02/"}, "\xce\xbc/"};
    const std::int64_t times[] = {
        0, -1, std::numeric_limits<std::int64_t>::max(), 1'234'567};
    const double two53 = 9007199254740992.0;
    const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             -0.0, two53, -two53, 0.1,
                             std::numeric_limits<double>::denorm_min(), 7.0};
    const std::size_t kinds =
        static_cast<std::size_t>(EventKind::kAppState) + 1;
    EventLog log;
    const auto emit = [&](std::size_t triple, std::size_t i) {
        log.emit(static_cast<EventKind>(triple % kinds),
                 at(SimDuration::micros(times[i % std::size(times)])),
                 sources[triple % std::size(sources)],
                 details[triple % std::size(details)] + std::to_string(triple),
                 values[i % std::size(values)]);
    };
    constexpr std::size_t kTriples = 3000;
    for (std::size_t i = 0; i < kTriples; ++i) emit(i, i);
    for (std::size_t i = 0; i < 600; ++i) emit(i * 7 % kTriples, i + 1);
    return log;
}

/// write_jsonl's and write_chrome_trace's bytes for \p log, built here
/// field by field from the format's definition.
std::string jsonl_by_fields(const EventLog& log) {
    std::string out;
    for (const Event& e : log.events()) {
        out += "{\"t_us\":" + std::to_string(e.time.ticks()) +
               ",\"kind\":\"" + std::string{to_string(e.kind)} +
               "\",\"src\":\"" + json_escape(log.symbol(e.source)) +
               "\",\"detail\":\"" + json_escape(log.symbol(e.detail)) +
               "\",\"value\":" + format_number(e.value) + "}\n";
    }
    return out;
}

std::string chrome_by_fields(const EventLog& log) {
    std::string out = "{\"traceEvents\":[";
    std::vector<std::int64_t> lane(log.symbol_count(), 0);
    std::int64_t lanes = 0;
    for (const Event& e : log.events()) {
        if (lane[e.source] != 0) continue;
        lane[e.source] = ++lanes;
        out += lanes == 1 ? "\n" : ",\n";
        out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
               std::to_string(lanes) + ",\"args\":{\"name\":\"" +
               json_escape(log.symbol(e.source)) + "\"}}";
    }
    for (const Event& e : log.events()) {
        const std::string kind{to_string(e.kind)};
        out += ",\n{\"name\":\"" + kind + ":" +
               json_escape(log.symbol(e.detail)) + "\",\"cat\":\"" + kind +
               "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" +
               std::to_string(e.time.ticks()) + ",\"pid\":1,\"tid\":" +
               std::to_string(lane[e.source]) + ",\"args\":{\"value\":" +
               format_number(e.value) + "}}";
    }
    return out + "\n]}\n";
}

/// Both writers match the field-by-field bytes when no two events share
/// a triple, through both overloads, appending to a non-empty string
/// and streaming across many 64 KiB flushes; read_jsonl reads the JSONL
/// back to the log, values as their text reads (non-finite as NaN, -0
/// as 0), on both decode paths.
TEST(Exporters, DistinctTriplesWriteFieldByFieldBytes) {
    const EventLog log = all_distinct_triples_log();
    const std::string jsonl = jsonl_by_fields(log);
    const std::string chrome = chrome_by_fields(log);
    ASSERT_GT(jsonl.size(), std::size_t{4} << 16);
    ASSERT_GT(chrome.size(), std::size_t{4} << 16);

    std::string text = "prefix";
    write_jsonl(log, text);
    EXPECT_EQ(text, "prefix" + jsonl);
    text = "prefix";
    write_chrome_trace(log, text);
    EXPECT_EQ(text, "prefix" + chrome);
    std::ostringstream streamed_jsonl, streamed_chrome;
    write_jsonl(log, streamed_jsonl);
    write_chrome_trace(log, streamed_chrome);
    EXPECT_EQ(streamed_jsonl.str(), jsonl);
    EXPECT_EQ(streamed_chrome.str(), chrome);

    EventLog as_read;
    for (const Event& e : log.events()) {
        const double v = !std::isfinite(e.value)
                             ? std::numeric_limits<double>::quiet_NaN()
                         : e.value == 0.0 ? 0.0
                                          : e.value;
        as_read.emit(e.kind, e.time, log.symbol(e.source),
                     log.symbol(e.detail), v);
    }
    std::string respaced;
    for (std::size_t begin = 0; begin < jsonl.size();) {
        const std::size_t end = jsonl.find('\n', begin) + 1;
        respaced += ' ' + jsonl.substr(begin, end - begin);
        begin = end;
    }
    std::istringstream is{jsonl};
    for (const EventLog& back :
         {read_jsonl(jsonl), read_jsonl(respaced), read_jsonl(is)}) {
        EXPECT_TRUE(back == as_read);
        EXPECT_EQ(back.fingerprint(), as_read.fingerprint());
        ASSERT_EQ(back.symbol_count(), as_read.symbol_count());
        for (SymbolId id = 0; id < back.symbol_count(); ++id) {
            ASSERT_EQ(back.symbol(id), as_read.symbol(id));
        }
    }
}

// ---- bench JSON schema -----------------------------------------------

TEST(BenchJson, AcceptsConformingReport) {
    std::istringstream is{
        "{\"bench\":\"e1_pca_interlock\",\"seed\":42,\"metrics\":["
        "{\"name\":\"severe_rate\",\"value\":0.25,\"unit\":\"fraction\"},"
        "{\"name\":\"nan_metric\",\"value\":null,\"unit\":\"ms\"}]}"};
    std::string error;
    EXPECT_TRUE(validate_bench_json(is, error)) << error;
}

TEST(BenchJson, RejectsMissingOrMistypedFields) {
    const char* bad[] = {
        "",                                       // empty
        "[1,2,3]",                                // not an object
        "{\"bench\":\"x\",\"metrics\":[]}",       // missing seed
        "{\"bench\":7,\"seed\":1,\"metrics\":[]}",  // bench not a string
        "{\"bench\":\"x\",\"seed\":1.5,\"metrics\":[]}",  // non-integer seed
        "{\"bench\":\"x\",\"seed\":1,\"metrics\":{}}",    // metrics not array
        "{\"bench\":\"x\",\"seed\":1,\"metrics\":[{\"name\":\"m\","
        "\"value\":1}]}",  // entry missing unit
    };
    for (const char* doc : bad) {
        std::istringstream is{doc};
        std::string error;
        EXPECT_FALSE(validate_bench_json(is, error)) << doc;
        EXPECT_FALSE(error.empty()) << doc;
    }
}

}  // namespace
