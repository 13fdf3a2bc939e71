/// \file test_trace.cpp
/// \brief Unit tests for the trace recorder and signal queries.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "sim/trace.hpp"

namespace {

using namespace mcps::sim;
using namespace mcps::sim::literals;

SimTime at(SimDuration d) { return SimTime::origin() + d; }

TEST(Signal, RecordsAndQueriesLast) {
    Signal s{"x"};
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.last().has_value());
    s.record(at(1_s), 10.0);
    s.record(at(2_s), 20.0);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_DOUBLE_EQ(*s.last(), 20.0);
}

TEST(Signal, RejectsNanValues) {
    Signal s{"x"};
    EXPECT_THROW(s.record(at(1_s), std::nan("")),
                 std::invalid_argument);
    EXPECT_TRUE(s.empty());
    // Infinities are representable measurements (divide-by-zero sensor
    // glitches) and pass through; only NaN is rejected.
    s.record(at(1_s), std::numeric_limits<double>::infinity());
    EXPECT_EQ(s.size(), 1u);
}

TEST(TraceRecorder, RejectsNanValues) {
    TraceRecorder tr;
    tr.record("x", at(1_s), 1.0);
    EXPECT_THROW(tr.record("x", at(2_s), std::nan("")),
                 std::invalid_argument);
    EXPECT_EQ(tr.find("x")->size(), 1u);
}

TEST(Signal, RejectsTimeGoingBackwards) {
    Signal s{"x"};
    s.record(at(2_s), 1.0);
    EXPECT_THROW(s.record(at(1_s), 2.0), std::invalid_argument);
    // Equal timestamps are allowed (multiple writers in one event).
    EXPECT_NO_THROW(s.record(at(2_s), 3.0));
}

TEST(Signal, ValueAtZeroOrderHold) {
    Signal s{"x"};
    s.record(at(10_s), 1.0);
    s.record(at(20_s), 2.0);
    EXPECT_FALSE(s.value_at(at(9_s)).has_value());
    EXPECT_DOUBLE_EQ(*s.value_at(at(10_s)), 1.0);
    EXPECT_DOUBLE_EQ(*s.value_at(at(15_s)), 1.0);
    EXPECT_DOUBLE_EQ(*s.value_at(at(20_s)), 2.0);
    EXPECT_DOUBLE_EQ(*s.value_at(at(1000_s)), 2.0);
}

TEST(Signal, TimeBelowThreshold) {
    Signal s{"spo2"};
    s.record(at(0_s), 95.0);
    s.record(at(10_s), 85.0);   // below 90 from 10s
    s.record(at(30_s), 92.0);   // back above at 30s
    const auto d = s.time_below(at(0_s), at(60_s), 90.0);
    EXPECT_EQ(d, 20_s);
}

TEST(Signal, TimeBelowHoldsLastValueToEnd) {
    Signal s{"spo2"};
    s.record(at(0_s), 80.0);
    EXPECT_EQ(s.time_below(at(0_s), at(50_s), 90.0), 50_s);
}

TEST(Signal, TimeAboveAndWindowClipping) {
    Signal s{"hr"};
    s.record(at(0_s), 100.0);
    s.record(at(10_s), 50.0);
    // Window [5, 8]: signal is 100 throughout.
    EXPECT_EQ(s.time_above(at(5_s), at(8_s), 90.0), 3_s);
    // Empty window.
    EXPECT_EQ(s.time_above(at(8_s), at(8_s), 90.0), SimDuration::zero());
}

TEST(Signal, FirstTimeWhere) {
    Signal s{"x"};
    s.record(at(1_s), 5.0);
    s.record(at(2_s), 15.0);
    s.record(at(3_s), 25.0);
    auto t = s.first_time_where(at(0_s), [](double v) { return v > 10; });
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(*t, at(2_s));
    auto t2 = s.first_time_where(at(2500_ms), [](double v) { return v > 10; });
    ASSERT_TRUE(t2.has_value());
    EXPECT_EQ(*t2, at(3_s));
    EXPECT_FALSE(
        s.first_time_where(at(0_s), [](double v) { return v > 100; }).has_value());
}

TEST(Signal, MinMaxInWindow) {
    Signal s{"x"};
    s.record(at(1_s), 5.0);
    s.record(at(2_s), 1.0);
    s.record(at(3_s), 9.0);
    EXPECT_DOUBLE_EQ(*s.min_in(at(0_s), at(10_s)), 1.0);
    EXPECT_DOUBLE_EQ(*s.max_in(at(0_s), at(10_s)), 9.0);
    EXPECT_DOUBLE_EQ(*s.min_in(at(3_s), at(10_s)), 9.0);
    EXPECT_FALSE(s.min_in(at(4_s), at(10_s)).has_value());
}

TEST(Signal, StatsAggregates) {
    Signal s{"x"};
    s.record(at(1_s), 2.0);
    s.record(at(2_s), 4.0);
    const auto st = s.stats();
    EXPECT_EQ(st.count(), 2u);
    EXPECT_DOUBLE_EQ(st.mean(), 3.0);
}

TEST(TraceRecorder, GetOrCreateSignalIsStable) {
    TraceRecorder tr;
    Signal& a = tr.signal("x");
    tr.record("x", at(1_s), 1.0);
    Signal& b = tr.signal("x");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(tr.signal_count(), 1u);
    EXPECT_NE(tr.find("x"), nullptr);
    EXPECT_EQ(tr.find("missing"), nullptr);
}

TEST(TraceRecorder, SignalNamesSorted) {
    TraceRecorder tr;
    tr.record("b", at(1_s), 1.0);
    tr.record("a", at(1_s), 1.0);
    EXPECT_EQ(tr.signal_names(), (std::vector<std::string>{"a", "b"}));
}

TEST(TraceRecorder, CsvExport) {
    TraceRecorder tr;
    tr.record("x", at(1_s), 1.5);
    std::ostringstream os;
    tr.write_csv(os);
    EXPECT_EQ(os.str(), "time_s,signal,value\n1,x,1.5\n");
}

}  // namespace
