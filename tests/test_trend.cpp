/// \file test_trend.cpp
/// \brief Tests for trend estimation and predictive early warning.

#include <gtest/gtest.h>

#include "core/pca_scenario.hpp"
#include "core/trend.hpp"
#include "physio/population.hpp"

namespace {

using namespace mcps;
using namespace mcps::sim::literals;
using core::EarlyWarning;
using core::EarlyWarningConfig;
using core::TrendEstimator;

sim::SimTime at(sim::SimDuration d) { return sim::SimTime::origin() + d; }

TEST(TrendEstimator, RequiresPositiveWindow) {
    EXPECT_THROW(TrendEstimator{sim::SimDuration::zero()},
                 std::invalid_argument);
}

TEST(TrendEstimator, ExactSlopeOnCleanRamp) {
    TrendEstimator t{5_min};
    // 2 units per minute upward ramp, sampled every 10 s.
    for (int i = 0; i <= 18; ++i) {
        t.add(at(10_s * i), 50.0 + 2.0 * (10.0 * i / 60.0));
    }
    ASSERT_TRUE(t.slope_per_min().has_value());
    EXPECT_NEAR(*t.slope_per_min(), 2.0, 1e-9);
    EXPECT_NEAR(*t.latest(), 56.0, 1e-9);
}

TEST(TrendEstimator, FlatSignalHasZeroSlopeAndNoCrossing) {
    TrendEstimator t{5_min};
    for (int i = 0; i < 10; ++i) t.add(at(10_s * i), 97.0);
    ASSERT_TRUE(t.slope_per_min().has_value());
    EXPECT_NEAR(*t.slope_per_min(), 0.0, 1e-12);
    EXPECT_FALSE(t.time_to_cross(90.0).has_value());
}

TEST(TrendEstimator, TooFewSamples) {
    TrendEstimator t{5_min};
    t.add(at(0_s), 1.0);
    t.add(at(10_s), 2.0);
    EXPECT_FALSE(t.slope_per_min().has_value());
    EXPECT_EQ(t.count(), 2u);
}

TEST(TrendEstimator, WindowEvictsOldSamples) {
    TrendEstimator t{1_min};
    for (int i = 0; i < 30; ++i) t.add(at(10_s * i), 1.0 * i);
    // Only samples within the last minute remain (~7).
    EXPECT_LE(t.count(), 7u);
    EXPECT_GE(t.count(), 6u);
}

TEST(TrendEstimator, TimeToCrossFallingSignal) {
    TrendEstimator t{5_min};
    // SpO2 falling 1%/min from 96.
    for (int i = 0; i <= 12; ++i) {
        t.add(at(10_s * i), 96.0 - (10.0 * i / 60.0));
    }
    // Now at 94, falling 1/min: crosses 90 in ~4 minutes.
    const auto ttc = t.time_to_cross(90.0);
    ASSERT_TRUE(ttc.has_value());
    EXPECT_NEAR(ttc->to_seconds(), 240.0, 5.0);
    // Rising threshold in the opposite direction: no prediction.
    EXPECT_FALSE(t.time_to_cross(99.0).has_value());
}

TEST(TrendEstimator, RejectsBackwardsTime) {
    TrendEstimator t{1_min};
    t.add(at(10_s), 1.0);
    EXPECT_THROW(t.add(at(5_s), 2.0), std::invalid_argument);
}

TEST(TrendEstimator, NoisyRampSlopeRecovered) {
    TrendEstimator t{5_min};
    sim::RngStream rng{5};
    for (int i = 0; i <= 30; ++i) {
        t.add(at(10_s * i),
              80.0 - 0.5 * (10.0 * i / 60.0) + rng.normal(0.0, 0.3));
    }
    ASSERT_TRUE(t.slope_per_min().has_value());
    EXPECT_NEAR(*t.slope_per_min(), -0.5, 0.15);
}

class EarlyWarningTest : public ::testing::Test {
protected:
    EarlyWarningTest()
        : sim_{42},
          bus_{sim_, net::ChannelParameters::ideal()},
          ctx_{sim_, bus_, trace_, events_} {}

    EarlyWarning& make(EarlyWarningConfig cfg = {}) {
        ew_.emplace(ctx_, "ew1", std::move(cfg));
        ew_->start();
        return *ew_;
    }

    void inject(const std::string& metric, double value, bool valid = true) {
        bus_.publish("inj", "vitals/bed1/" + metric,
                     net::VitalSignPayload{metric, value, valid});
    }

    sim::Simulation sim_;
    net::Bus bus_;
    sim::TraceRecorder trace_;
    mcps::obs::EventLog events_;
    devices::DeviceContext ctx_;
    std::optional<EarlyWarning> ew_;
};

TEST_F(EarlyWarningTest, ConfigValidation) {
    EarlyWarningConfig cfg;
    cfg.horizon = sim::SimDuration::zero();
    EXPECT_THROW(EarlyWarning(ctx_, "x", cfg), std::invalid_argument);
}

TEST_F(EarlyWarningTest, QuietOnStableVitals) {
    auto& ew = make();
    for (int i = 0; i < 300; ++i) {
        inject("spo2", 97.0);
        inject("resp_rate", 14.0);
        sim_.run_for(2_s);
    }
    EXPECT_TRUE(ew.alerts().empty());
}

TEST_F(EarlyWarningTest, PredictsFallingSpo2BeforeThreshold) {
    auto& ew = make();
    // SpO2 declining 0.5%/min from 97: crosses 90 in 14 minutes; the
    // 10-minute horizon should trigger around 96->92.
    double spo2 = 97.0;
    double value_at_alert = -1.0;
    for (int i = 0; i < 600 && ew.alerts().empty(); ++i) {
        inject("spo2", spo2);
        sim_.run_for(2_s);
        spo2 -= 0.5 * (2.0 / 60.0);
        value_at_alert = spo2;
    }
    ASSERT_FALSE(ew.alerts().empty());
    const auto& a = ew.alerts()[0];
    EXPECT_EQ(a.metric, "spo2");
    EXPECT_GT(a.current_value, 90.0);       // warned BEFORE the crossing
    EXPECT_LT(a.slope_per_min, 0.0);
    EXPECT_LE(a.predicted_cross_in_s, 10.0 * 60.0 + 1.0);
    (void)value_at_alert;
}

TEST_F(EarlyWarningTest, RisingEtco2Predicted) {
    auto& ew = make();
    double etco2 = 42.0;
    for (int i = 0; i < 600 && ew.alerts().empty(); ++i) {
        inject("etco2", etco2);
        sim_.run_for(2_s);
        etco2 += 2.0 * (2.0 / 60.0);  // +2 mmHg/min toward the 60 limit
    }
    ASSERT_FALSE(ew.alerts().empty());
    EXPECT_EQ(ew.alerts()[0].metric, "etco2");
    EXPECT_LT(ew.alerts()[0].current_value, 60.0);
}

TEST_F(EarlyWarningTest, NoiseGateSuppressesTinySlopes) {
    EarlyWarningConfig cfg;
    cfg.min_slope_per_min = 0.2;
    auto& ew = make(cfg);
    // Falling at 0.05 %/min: real but below the gate.
    double spo2 = 92.0;
    for (int i = 0; i < 300; ++i) {
        inject("spo2", spo2);
        sim_.run_for(2_s);
        spo2 -= 0.05 * (2.0 / 60.0);
    }
    EXPECT_TRUE(ew.alerts().empty());
}

TEST_F(EarlyWarningTest, InvalidSamplesIgnored) {
    auto& ew = make();
    // A falling run of artifact-flagged samples must not build a trend.
    double spo2 = 97.0;
    for (int i = 0; i < 200; ++i) {
        inject("spo2", spo2, /*valid=*/false);
        sim_.run_for(2_s);
        spo2 -= 1.0 * (2.0 / 60.0);
    }
    EXPECT_TRUE(ew.alerts().empty());
    EXPECT_EQ(ew.trend("spo2"), nullptr);
}

TEST_F(EarlyWarningTest, RearmLimitsRepeatAlerts) {
    EarlyWarningConfig cfg;
    cfg.rearm = 10_min;
    auto& ew = make(cfg);
    double spo2 = 95.0;
    for (int i = 0; i < 450; ++i) {  // 15 min of steady decline
        inject("spo2", spo2);
        sim_.run_for(2_s);
        spo2 = std::max(90.5, spo2 - 0.4 * (2.0 / 60.0));
    }
    EXPECT_LE(ew.alerts().size(), 2u);
    EXPECT_GE(ew.alerts().size(), 1u);
}

TEST(EarlyWarningIntegration, WarnsAheadOfOverdoseThreshold) {
    // Full stack: the predictor's alert precedes the true SpO2-90
    // crossing during a real simulated overdose.
    core::PcaScenarioConfig cfg;
    cfg.seed = 17;
    cfg.duration = 2_h;
    cfg.patient =
        physio::nominal_parameters(physio::Archetype::kOpioidSensitive);
    cfg.demand_mode = core::DemandMode::kProxy;
    cfg.interlock = std::nullopt;

    core::PcaScenario scenario{cfg};
    devices::DeviceContext ctx{scenario.simulation(), scenario.bus(),
                               scenario.trace(), scenario.events()};
    EarlyWarning ew{ctx, "ew1", EarlyWarningConfig{}};
    ew.start();
    const auto r = scenario.run();
    ASSERT_TRUE(r.hypoxia_onset_s.has_value());
    ASSERT_FALSE(ew.alerts().empty());
    // First predictive alert (any metric) strictly precedes the event.
    EXPECT_LT(ew.alerts()[0].at.to_seconds(), *r.hypoxia_onset_s);
}

}  // namespace
