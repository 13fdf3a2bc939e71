/// \file test_stats.cpp
/// \brief Unit tests for the statistics accumulators and Table printer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "sim/stats.hpp"
#include "sim/table.hpp"

namespace {

using namespace mcps::sim;

TEST(RunningStats, EmptyState) {
    RunningStats st;
    EXPECT_TRUE(st.empty());
    EXPECT_EQ(st.count(), 0u);
    EXPECT_EQ(st.mean(), 0.0);
    EXPECT_EQ(st.variance(), 0.0);
    EXPECT_TRUE(std::isnan(st.min()));
    EXPECT_TRUE(std::isnan(st.max()));
}

TEST(RunningStats, KnownValues) {
    RunningStats st;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(v);
    EXPECT_EQ(st.count(), 8u);
    EXPECT_DOUBLE_EQ(st.mean(), 5.0);
    EXPECT_DOUBLE_EQ(st.sum(), 40.0);
    EXPECT_NEAR(st.variance(), 32.0 / 7.0, 1e-12);  // sample variance
    EXPECT_DOUBLE_EQ(st.min(), 2.0);
    EXPECT_DOUBLE_EQ(st.max(), 9.0);
}

TEST(RunningStats, SingleSampleVarianceZero) {
    RunningStats st;
    st.add(3.0);
    EXPECT_EQ(st.variance(), 0.0);
    EXPECT_EQ(st.stddev(), 0.0);
}

TEST(RunningStats, MergeEqualsConcatenation) {
    RunningStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double v = std::sin(i) * 10;
        (i % 2 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
    RunningStats a, empty;
    a.add(1.0);
    a.add(2.0);
    const double mean_before = a.mean();
    a.merge(empty);
    EXPECT_DOUBLE_EQ(a.mean(), mean_before);
    RunningStats c;
    c.merge(a);
    EXPECT_DOUBLE_EQ(c.mean(), mean_before);
}

TEST(SampleSet, QuantilesExact) {
    SampleSet s;
    for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
    EXPECT_NEAR(s.median(), 50.5, 1e-12);
    EXPECT_NEAR(s.quantile(0.95), 95.05, 1e-9);
}

TEST(SampleSet, QuantileErrors) {
    SampleSet s;
    EXPECT_THROW((void)s.quantile(0.5), std::out_of_range);
    s.add(1.0);
    EXPECT_THROW((void)s.quantile(-0.1), std::out_of_range);
    EXPECT_THROW((void)s.quantile(1.1), std::out_of_range);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 1.0);
}

TEST(SampleSet, AddAfterQuantileStillCorrect) {
    SampleSet s;
    s.add(5.0);
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.median(), 3.0);
    s.add(9.0);  // invalidates the sorted cache
    EXPECT_DOUBLE_EQ(s.median(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Histogram, BinsAndOverflow) {
    Histogram h{0.0, 10.0, 5};
    EXPECT_EQ(h.bins(), 5u);
    h.add(0.5);   // bin 0
    h.add(9.9);   // bin 4
    h.add(-1.0);  // underflow
    h.add(10.0);  // overflow (hi is exclusive)
    h.add(25.0);  // overflow
    EXPECT_EQ(h.bin_count(0), 1u);
    EXPECT_EQ(h.bin_count(4), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_DOUBLE_EQ(h.bin_low(1), 2.0);
    EXPECT_DOUBLE_EQ(h.bin_high(1), 4.0);
}

TEST(Histogram, ExtremeValuesLandInOverflowWithoutUb) {
    // Regression: values whose bin index exceeds size_t (or NaN) must be
    // classified as overflow BEFORE the float->int cast, which would
    // otherwise be undefined behaviour.
    Histogram h{0.0, 10.0, 5};
    h.add(1e300);
    h.add(std::numeric_limits<double>::infinity());
    h.add(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.overflow(), 3u);
    EXPECT_EQ(h.total(), 3u);
    for (std::size_t i = 0; i < h.bins(); ++i) EXPECT_EQ(h.bin_count(i), 0u);
}

TEST(Histogram, InvalidConstruction) {
    EXPECT_THROW(Histogram(0.0, 10.0, 0), std::invalid_argument);
    EXPECT_THROW(Histogram(10.0, 0.0, 5), std::invalid_argument);
}

TEST(Histogram, MergeEqualsConcatenation) {
    Histogram a{0.0, 10.0, 5}, b{0.0, 10.0, 5}, all{0.0, 10.0, 5};
    for (int i = 0; i < 100; ++i) {
        const double v = -2.0 + 0.15 * i;  // spans under/in/overflow
        (i % 3 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.total(), all.total());
    EXPECT_EQ(a.underflow(), all.underflow());
    EXPECT_EQ(a.overflow(), all.overflow());
    for (std::size_t i = 0; i < all.bins(); ++i) {
        EXPECT_EQ(a.bin_count(i), all.bin_count(i));
    }
}

TEST(Histogram, MergeIsAssociative) {
    // (a + b) + c must equal a + (b + c) bin-for-bin — the property the
    // ward engine's shard reduction relies on.
    Histogram a{0.0, 8.0, 4}, b{0.0, 8.0, 4}, c{0.0, 8.0, 4};
    for (int i = 0; i < 30; ++i) a.add(0.3 * i);
    for (int i = 0; i < 20; ++i) b.add(0.5 * i - 1.0);
    for (int i = 0; i < 25; ++i) c.add(0.4 * i + 2.0);

    Histogram left = a;   // (a + b) + c
    left.merge(b);
    left.merge(c);
    Histogram bc = b;     // a + (b + c)
    bc.merge(c);
    Histogram right = a;
    right.merge(bc);

    EXPECT_EQ(left.total(), right.total());
    EXPECT_EQ(left.underflow(), right.underflow());
    EXPECT_EQ(left.overflow(), right.overflow());
    for (std::size_t i = 0; i < left.bins(); ++i) {
        EXPECT_EQ(left.bin_count(i), right.bin_count(i));
    }
}

TEST(Histogram, PartitionMergePropertyOverRandomPartitions) {
    // The hospital engine's contract: samples partitioned arbitrarily
    // across wards and merged in any grouping must equal the
    // unpartitioned aggregate EXACTLY — counts, under/overflow, and the
    // quantiles computed from them. Randomized partitions (deterministic
    // seeds), including empty parts.
    std::uint64_t rng_state = 0x9E3779B97F4A7C15ULL;
    auto next = [&rng_state]() {  // splitmix64: no platform variance
        rng_state += 0x9E3779B97F4A7C15ULL;
        std::uint64_t z = rng_state;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    };
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t parts = 1 + next() % 9;
        std::vector<Histogram> shard(parts, Histogram{50.0, 100.0, 50});
        Histogram whole{50.0, 100.0, 50};
        const std::size_t samples = 200 + next() % 800;
        for (std::size_t s = 0; s < samples; ++s) {
            // Span underflow, in-range and overflow values.
            const double v =
                40.0 + static_cast<double>(next() % 700) / 10.0;
            whole.add(v);
            shard[next() % parts].add(v);
        }
        Histogram merged{50.0, 100.0, 50};
        for (const Histogram& h : shard) merged.merge(h);
        ASSERT_EQ(merged.total(), whole.total());
        EXPECT_EQ(merged.underflow(), whole.underflow());
        EXPECT_EQ(merged.overflow(), whole.overflow());
        for (std::size_t i = 0; i < whole.bins(); ++i) {
            EXPECT_EQ(merged.bin_count(i), whole.bin_count(i));
        }
        // Quantiles are a pure function of the counts, so they must be
        // bit-equal too (the streaming-aggregation guarantee hospital
        // reports rely on).
        for (const double q : {0.5, 0.9, 0.99}) {
            EXPECT_EQ(merged.quantile(q), whole.quantile(q)) << q;
        }
    }
}

TEST(Histogram, MergeRejectsMismatchedBinning) {
    Histogram a{0.0, 10.0, 5};
    EXPECT_FALSE(a.same_binning(Histogram{0.0, 10.0, 10}));
    EXPECT_FALSE(a.same_binning(Histogram{1.0, 11.0, 5}));
    EXPECT_TRUE(a.same_binning(Histogram{0.0, 10.0, 5}));
    Histogram narrower{0.0, 5.0, 5};
    EXPECT_THROW(a.merge(narrower), std::invalid_argument);
}

TEST(Histogram, QuantileInterpolatesWithinBin) {
    Histogram h{0.0, 10.0, 10};
    for (int i = 0; i < 10; ++i) h.add(i + 0.5);  // one sample per bin
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
    EXPECT_NEAR(h.quantile(0.5), 5.0, 1e-9);
    EXPECT_NEAR(h.quantile(0.95), 9.5, 1e-9);
    EXPECT_NEAR(h.percentile(50.0), h.quantile(0.5), 1e-12);
}

TEST(Histogram, QuantileClampsOutOfRangeMass) {
    Histogram h{0.0, 10.0, 5};
    h.add(-5.0);  // underflow -> reported as lo
    h.add(20.0);  // overflow  -> reported as hi
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(Histogram, QuantileErrors) {
    Histogram h{0.0, 10.0, 5};
    EXPECT_THROW((void)h.quantile(0.5), std::out_of_range);
    h.add(5.0);
    EXPECT_THROW((void)h.quantile(-0.1), std::out_of_range);
    EXPECT_THROW((void)h.quantile(1.1), std::out_of_range);
}

TEST(Histogram, ToStringContainsBars) {
    Histogram h{0.0, 2.0, 2};
    h.add(0.5);
    h.add(0.6);
    h.add(1.5);
    const auto s = h.to_string(10);
    EXPECT_NE(s.find("##########"), std::string::npos);
    EXPECT_NE(s.find("#####"), std::string::npos);
}

TEST(Table, AlignsAndRenders) {
    Table t({"name", "value"});
    t.row().cell("alpha").cell(1.5, 2);
    t.row().cell("b").cell(std::int64_t{42});
    std::ostringstream os;
    t.print(os, "demo");
    const auto s = os.str();
    EXPECT_NE(s.find("== demo =="), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.50"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("-----"), std::string::npos);
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvOutput) {
    Table t({"a", "b"});
    t.row().cell(std::int64_t{1}).cell(std::int64_t{2});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, MisuseThrows) {
    EXPECT_THROW(Table({}), std::invalid_argument);
    Table t({"a"});
    EXPECT_THROW(t.cell("x"), std::logic_error);  // cell before row
    t.row().cell("1");
    EXPECT_THROW(t.cell("2"), std::logic_error);  // too many cells
}

}  // namespace
