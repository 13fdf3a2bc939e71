/// \file test_obs.cpp
/// \brief Unit tests for the observability layer: event log, metrics
/// registry, deterministic formatting, and the JSONL / Chrome / bench
/// exporters.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

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
                   EventKind::kShardEnd}) {
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
    EXPECT_EQ(a.events().back().source, "ilk");
}

TEST(EventLog, NullGuardedEmitHelper) {
    emit(nullptr, EventKind::kBusDrop, at(1_s), "a", "b");  // must not crash
    EventLog log;
    emit(&log, EventKind::kBusDrop, at(1_s), "a", "b", 3.0);
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

TEST(Format, JsonEscapesControlAndQuotes) {
    EXPECT_EQ(json_escape("plain/topic"), "plain/topic");
    EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json_escape("x\n\t"), "x\\n\\t");
    EXPECT_EQ(json_escape(std::string{"\x01"}), "\\u0001");
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
    EXPECT_TRUE(back.events() == log.events());
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
    EXPECT_EQ(back.events()[0].source, "sup \"one\"");
    EXPECT_EQ(back.events()[0].detail, "line\nbreak\tand\\slash");
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
