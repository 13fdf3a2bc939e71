/// \file test_ward.cpp
/// \brief Ward engine determinism: the parallel campaign must be
/// bit-identical to the serial one — fingerprint AND every merged
/// statistic — for any job count, across scenario mixes and with
/// adversarial fault plans enabled.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "testkit/scenario_gen.hpp"
#include "ward/ward.hpp"

namespace {

using namespace mcps;
using namespace mcps::ward;

// ---- config / mix ----------------------------------------------------

TEST(ScenarioMix, ParseRoundTrip) {
    const auto mix = parse_mix("pca=2,xray=1,ward=1");
    const auto n = mix.normalized();
    EXPECT_DOUBLE_EQ(n.pca, 0.5);
    EXPECT_DOUBLE_EQ(n.xray, 0.25);
    EXPECT_DOUBLE_EQ(n.alarm_ward, 0.25);
    EXPECT_EQ(to_string(n), "pca=0.500,xray=0.250,ward=0.250");
    // alarm_ward is an accepted alias for ward.
    EXPECT_EQ(parse_mix("alarm_ward=1"), parse_mix("ward=1"));
}

TEST(ScenarioMix, RejectsBadSpecs) {
    EXPECT_THROW((void)parse_mix("pca=0.5,bogus=1"), WardConfigError);
    EXPECT_THROW((void)parse_mix("pca=abc"), WardConfigError);
    const ScenarioMix all_zero{0, 0, 0};
    const ScenarioMix negative{-1, 2, 0};
    EXPECT_THROW((void)all_zero.normalized(), WardConfigError);
    EXPECT_THROW((void)negative.normalized(), WardConfigError);
}

TEST(WardConfig, ValidateRejectsDegenerateCampaigns) {
    WardConfig cfg;
    cfg.patients = 0;
    EXPECT_THROW(cfg.validate(), WardConfigError);
    cfg.patients = 4;
    cfg.shards = 0;
    EXPECT_THROW(cfg.validate(), WardConfigError);
    cfg.shards = 4;
    // The fault intensity is a finite number in [0, kMaxFaultIntensity];
    // the message names the refused value.
    for (const double bad : {-0.5, std::nan(""), HUGE_VAL, -HUGE_VAL, 1e9,
                             std::nextafter(testkit::kMaxFaultIntensity,
                                            HUGE_VAL)}) {
        cfg.fault_intensity = bad;
        try {
            cfg.validate();
            ADD_FAILURE() << "accepted fault_intensity " << bad;
        } catch (const WardConfigError& e) {
            char value[32];
            std::snprintf(value, sizeof value, "%g", bad);
            EXPECT_NE(std::string{e.what()}.find(value), std::string::npos)
                << e.what();
        }
    }
    for (const double good : {0.0, 1.0, testkit::kMaxFaultIntensity}) {
        cfg.fault_intensity = good;
        EXPECT_NO_THROW(cfg.validate()) << good;
    }
}

TEST(WardScenarioFactory, KindChoiceIsDeterministicAndMixWeighted) {
    WardConfig cfg;
    cfg.seed = 777;
    cfg.patients = 200;
    const WardScenarioFactory a{cfg}, b{cfg};
    std::size_t pca = 0, xray = 0, alarm = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
        const auto k = a.kind_of(i);
        EXPECT_EQ(k, b.kind_of(i));  // pure function of (seed, index)
        switch (k) {
            case WardScenarioKind::kPcaClosedLoop: ++pca; break;
            case WardScenarioKind::kXraySync: ++xray; break;
            case WardScenarioKind::kAlarmWard: ++alarm; break;
            case WardScenarioKind::kHospital:
                FAIL() << "default mix has no hospital weight";
                break;
        }
    }
    // Default mix is 70/15/15; with 200 draws every kind must appear and
    // PCA must dominate.
    EXPECT_GT(pca, xray);
    EXPECT_GT(pca, alarm);
    EXPECT_GT(xray, 0u);
    EXPECT_GT(alarm, 0u);
}

// ---- engine determinism ----------------------------------------------

/// Bitwise equality for merged doubles: the determinism contract is
/// bit-identical reduction, not approximate agreement.
bool bits_equal(double a, double b) {
    std::uint64_t ua = 0, ub = 0;
    std::memcpy(&ua, &a, sizeof a);
    std::memcpy(&ub, &b, sizeof b);
    return ua == ub;
}

void expect_reports_identical(const WardReport& s, const WardReport& p) {
    EXPECT_EQ(s.fingerprint, p.fingerprint);
    EXPECT_EQ(s.pca_runs, p.pca_runs);
    EXPECT_EQ(s.xray_runs, p.xray_runs);
    EXPECT_EQ(s.alarm_ward_runs, p.alarm_ward_runs);
    EXPECT_EQ(s.hospital_runs, p.hospital_runs);
    EXPECT_EQ(s.demands_denied, p.demands_denied);
    EXPECT_EQ(s.interlock_stops, p.interlock_stops);
    EXPECT_EQ(s.monitor_alarms, p.monitor_alarms);
    EXPECT_EQ(s.smart_alarms, p.smart_alarms);
    EXPECT_EQ(s.smart_critical, p.smart_critical);
    EXPECT_EQ(s.violations, p.violations);
    EXPECT_EQ(s.events_dispatched, p.events_dispatched);

    EXPECT_EQ(s.drug_mg.count(), p.drug_mg.count());
    EXPECT_TRUE(bits_equal(s.drug_mg.mean(), p.drug_mg.mean()));
    EXPECT_TRUE(bits_equal(s.drug_mg.variance(), p.drug_mg.variance()));
    EXPECT_TRUE(bits_equal(s.min_spo2.mean(), p.min_spo2.mean()));
    EXPECT_TRUE(bits_equal(s.mean_pain.mean(), p.mean_pain.mean()));
    EXPECT_TRUE(bits_equal(s.detection_latency_s.mean(),
                           p.detection_latency_s.mean()));

    EXPECT_EQ(s.dose_hist.total(), p.dose_hist.total());
    for (std::size_t i = 0; i < s.dose_hist.bins(); ++i) {
        EXPECT_EQ(s.dose_hist.bin_count(i), p.dose_hist.bin_count(i));
    }
    EXPECT_EQ(s.latency_hist.total(), p.latency_hist.total());
}

TEST(WardEngine, ParallelRunIsBitIdenticalAcrossMixes) {
    // Three mixes: PCA-heavy, x-ray-heavy, alarm-heavy.
    const ScenarioMix mixes[] = {
        {0.8, 0.1, 0.1}, {0.2, 0.6, 0.2}, {0.2, 0.2, 0.6}};
    for (const auto& mix : mixes) {
        WardConfig cfg;
        cfg.seed = 4242;
        cfg.patients = 10;
        cfg.shards = 5;
        cfg.mix = mix;

        cfg.jobs = 1;
        const auto serial = WardEngine{cfg}.run();
        cfg.jobs = 8;
        const auto parallel = WardEngine{cfg}.run();
        expect_reports_identical(serial, parallel);
    }
}

TEST(WardEngine, HospitalWorkloadRunsInMixAndStaysBitIdentical) {
    // The PR-9 wiring check: campaigns can embed smoke-sized hospital
    // population runs next to the classic workloads, the kind sequence
    // draws them, and serial vs parallel reports stay bit-identical.
    WardConfig cfg;
    cfg.seed = 9001;
    cfg.patients = 12;
    cfg.shards = 6;
    cfg.mix = {0.25, 0.25, 0.25, 0.25};

    cfg.jobs = 1;
    const auto serial = WardEngine{cfg}.run();
    cfg.jobs = 8;
    const auto parallel = WardEngine{cfg}.run();
    expect_reports_identical(serial, parallel);

    EXPECT_GT(serial.hospital_runs, 0u);
    EXPECT_EQ(serial.pca_runs + serial.xray_runs + serial.alarm_ward_runs +
                  serial.hospital_runs,
              serial.patients);
    // Hospital slots run inside the claimed-safe envelope (local
    // interlock), so they add no invariant violations.
    EXPECT_EQ(serial.violations, 0u);
    EXPECT_EQ(to_string(cfg.mix),
              "pca=0.250,xray=0.250,ward=0.250,hospital=0.250");
}

TEST(WardConfig, HospitalMixParsesAndRendersOnlyWhenPresent) {
    const auto mix = parse_mix("pca=1,hospital=1");
    EXPECT_DOUBLE_EQ(mix.pca, 0.5);
    EXPECT_DOUBLE_EQ(mix.hospital, 0.5);
    EXPECT_EQ(to_string(mix), "pca=0.500,xray=0.000,ward=0.000,hospital=0.500");
    // Without a hospital weight the classic three-key rendering is
    // byte-stable (pinned report text depends on it).
    EXPECT_EQ(to_string(parse_mix("pca=2,xray=1,ward=1")),
              "pca=0.500,xray=0.250,ward=0.250");
}

TEST(WardEngine, ParallelRunIsBitIdenticalWithFaultPlans) {
    WardConfig cfg;
    cfg.seed = 31337;
    cfg.patients = 12;
    cfg.shards = 6;
    cfg.fault_intensity = 1.0;  // adversarial fault plans enabled

    cfg.jobs = 1;
    const auto serial = WardEngine{cfg}.run();
    cfg.jobs = 8;
    const auto parallel = WardEngine{cfg}.run();
    expect_reports_identical(serial, parallel);
}

TEST(WardEngine, ObservationIsBitIdenticalAcrossJobCounts) {
    WardConfig cfg;
    cfg.seed = 777;
    cfg.patients = 12;
    cfg.shards = 6;
    cfg.mix = {0.5, 0.25, 0.25};
    cfg.fault_intensity = 1.0;
    const auto checker = testkit::InvariantChecker::with_defaults();

    std::vector<WardObservation> observations;
    for (const unsigned jobs : {1u, 4u, 8u}) {
        cfg.jobs = jobs;
        auto& o = observations.emplace_back();
        (void)WardEngine{cfg}.run(checker, &o);
    }

    const auto& ref = observations.front();
    ASSERT_FALSE(ref.events.empty());
    EXPECT_GT(ref.metrics.counter_count(), 0u);
    for (std::size_t i = 1; i < observations.size(); ++i) {
        const auto& o = observations[i];
        // Full structural equality, not just fingerprints.
        ASSERT_EQ(o.events.size(), ref.events.size());
        EXPECT_TRUE(o.events == ref.events);
        EXPECT_EQ(o.events.fingerprint(), ref.events.fingerprint());
        EXPECT_EQ(o.metrics.fingerprint(), ref.metrics.fingerprint());
    }

    // The merged metrics agree with the ward totals.
    cfg.jobs = 1;
    const auto report = WardEngine{cfg}.run(checker, nullptr);
    const auto* scenarios = ref.metrics.find_counter("ward.scenarios");
    ASSERT_NE(scenarios, nullptr);
    EXPECT_EQ(scenarios->value(), cfg.patients);
    const auto* stops = ref.metrics.find_counter("ward.interlock_stops");
    ASSERT_NE(stops, nullptr);
    EXPECT_EQ(stops->value(), report.interlock_stops);
}

TEST(WardEngine, ObservationCollectsShardAndScenarioEvents) {
    WardConfig cfg;
    cfg.seed = 99;
    cfg.patients = 4;
    cfg.shards = 2;
    cfg.mix = {1.0, 0.0, 0.0};  // all PCA
    WardObservation o;
    (void)WardEngine{cfg}.run(testkit::InvariantChecker::with_defaults(), &o);

    EXPECT_EQ(o.events.count(mcps::obs::EventKind::kShardStart), 2u);
    EXPECT_EQ(o.events.count(mcps::obs::EventKind::kShardEnd), 2u);
    EXPECT_EQ(o.events.count(mcps::obs::EventKind::kScenarioStart), 4u);
    EXPECT_EQ(o.events.count(mcps::obs::EventKind::kScenarioEnd), 4u);
    // Bus traffic flows through the shared log.
    EXPECT_GT(o.events.count(mcps::obs::EventKind::kBusPublish), 0u);
}

TEST(WardEngine, FingerprintDependsOnSeedAndMix) {
    WardConfig cfg;
    cfg.patients = 6;
    cfg.shards = 3;
    cfg.seed = 1;
    const auto fp1 = WardEngine{cfg}.run().fingerprint;
    cfg.seed = 2;
    const auto fp2 = WardEngine{cfg}.run().fingerprint;
    EXPECT_NE(fp1, fp2);
    cfg.seed = 1;
    cfg.mix = {0.0, 1.0, 0.0};  // all x-ray
    const auto fp3 = WardEngine{cfg}.run().fingerprint;
    EXPECT_NE(fp1, fp3);
}

TEST(WardEngine, ShardCountFixesTheReduction) {
    // Changing the job count must not change the report; the shard count
    // is what pins the reduction tree, and the fingerprint (integer
    // chain in index order) is invariant to it too.
    WardConfig cfg;
    cfg.seed = 99;
    cfg.patients = 9;
    cfg.shards = 9;
    cfg.jobs = 1;
    const auto nine = WardEngine{cfg}.run();
    cfg.shards = 2;
    cfg.jobs = 4;
    const auto two = WardEngine{cfg}.run();
    EXPECT_EQ(nine.fingerprint, two.fingerprint);
    EXPECT_EQ(nine.events_dispatched, two.events_dispatched);
}

TEST(WardEngine, ReportSerializesBothWays) {
    WardConfig cfg;
    cfg.patients = 4;
    cfg.shards = 2;
    const auto rep = WardEngine{cfg}.run();
    std::ostringstream text, jsn;
    rep.print(text);
    rep.write_json(jsn);
    EXPECT_NE(text.str().find("fingerprint"), std::string::npos);
    EXPECT_NE(jsn.str().find("\"fingerprint\""), std::string::npos);
    EXPECT_NE(jsn.str().find("\"scenarios_per_sec\""), std::string::npos);
}

}  // namespace
