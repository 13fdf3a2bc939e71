/// \file test_nurse_response.cpp
/// \brief Tests for the antagonist rescue pathway and the fatigued
/// nurse-response model.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/nurse_response.hpp"
#include "core/pca_scenario.hpp"
#include "devices/devices.hpp"
#include "physio/population.hpp"

namespace {

using namespace mcps;
using namespace mcps::sim::literals;
using core::NurseConfig;
using core::NurseResponder;

TEST(Antagonist, ReversesRespiratoryDepression) {
    physio::Patient p{
        physio::nominal_parameters(physio::Archetype::kOpioidSensitive)};
    p.set_infusion_rate(physio::InfusionRate::mg_per_hour(6.0));
    for (int i = 0; i < 4800; ++i) p.step(0.5);  // 40 min: deeply depressed
    const double depressed_drive = p.respiratory_drive();
    ASSERT_LT(depressed_drive, 0.6);
    p.give_antagonist(6.0, 25.0 * 60.0);
    for (int i = 0; i < 240; ++i) p.step(0.5);  // 2 min to re-equilibrate
    EXPECT_GT(p.respiratory_drive(), depressed_drive + 0.2);
    EXPECT_NEAR(p.antagonist_level(), std::exp2(-120.0 / (25 * 60)), 0.02);
}

TEST(Antagonist, WearsOffAndRenarcotizes) {
    physio::Patient p{
        physio::nominal_parameters(physio::Archetype::kOpioidSensitive)};
    // Sustained infusion keeps the opioid level up.
    p.set_infusion_rate(physio::InfusionRate::mg_per_hour(6.0));
    for (int i = 0; i < 4800; ++i) p.step(0.5);  // 40 min
    ASSERT_LT(p.respiratory_drive(), 0.6);
    p.give_antagonist(6.0, 5.0 * 60.0);  // short half-life
    for (int i = 0; i < 600; ++i) p.step(0.5);  // 5 min: rescued
    const double rescued = p.respiratory_drive();
    for (int i = 0; i < 4800; ++i) p.step(0.5);  // 40 min: worn off
    EXPECT_LT(p.respiratory_drive(), rescued);  // renarcotization
    EXPECT_LT(p.antagonist_level(), 0.01);
}

TEST(Antagonist, ParameterValidation) {
    physio::Patient p{physio::PatientParameters{}};
    EXPECT_THROW(p.give_antagonist(0.0, 60.0), std::invalid_argument);
    EXPECT_THROW(p.give_antagonist(5.0, 0.0), std::invalid_argument);
}

class NurseTest : public ::testing::Test {
protected:
    NurseTest()
        : sim_{42},
          bus_{sim_, net::ChannelParameters::ideal()},
          patient_{physio::nominal_parameters(physio::Archetype::kTypicalAdult)},
          ctx_{sim_, bus_, trace_, events_} {}

    NurseResponder& make(NurseConfig cfg = {}) {
        cfg.pump_name = "";  // no pump in these unit tests
        nurse_.emplace(ctx_, "n1", patient_, std::move(cfg));
        nurse_->start();
        // Keep physiology moving so bedside assessment sees live values.
        sim_.schedule_periodic(500_ms, [this] { patient_.step(0.5); });
        return *nurse_;
    }

    void ring(const std::string& topic = "alarm/monitor1") {
        bus_.publish("monitor1", topic,
                     net::StatusPayload{"threshold", "spo2:low"});
    }

    sim::Simulation sim_;
    net::Bus bus_;
    sim::TraceRecorder trace_;
    physio::Patient patient_;
    mcps::obs::EventLog events_;
    devices::DeviceContext ctx_;
    std::optional<NurseResponder> nurse_;
};

TEST_F(NurseTest, ConfigValidation) {
    NurseConfig cfg;
    cfg.base_response = sim::SimDuration::zero();
    EXPECT_THROW(NurseResponder(ctx_, "n", patient_, cfg),
                 std::invalid_argument);
    cfg = {};
    cfg.max_response_factor = 0.5;
    EXPECT_THROW(NurseResponder(ctx_, "n", patient_, cfg),
                 std::invalid_argument);
}

TEST_F(NurseTest, DispatchesAndFalseTripsOnHealthyPatient) {
    auto& n = make();
    ring();
    sim_.run_for(20_min);
    EXPECT_EQ(n.stats().alarms_heard, 1u);
    EXPECT_EQ(n.stats().dispatches, 1u);
    EXPECT_EQ(n.stats().false_trips, 1u);
    EXPECT_EQ(n.stats().rescues, 0u);
    ASSERT_EQ(n.stats().response_times_s.size(), 1u);
    EXPECT_GT(n.stats().response_times_s[0], 0.0);

    // Each action is one clinician event; arrive carries the delay.
    std::vector<std::string> actions;
    for (const auto& e : events_.events()) {
        ASSERT_EQ(e.kind, obs::EventKind::kClinician);
        EXPECT_EQ(events_.symbol(e.source), "n1");
        actions.emplace_back(events_.symbol(e.detail));
    }
    EXPECT_EQ(actions, (std::vector<std::string>{"dispatch", "arrive",
                                                 "false_trip"}));
    EXPECT_EQ(events_.events()[1].value, n.stats().response_times_s[0]);
}

TEST_F(NurseTest, RescuesDepressedPatient) {
    // A runaway infusion on a sensitive patient keeps the depression
    // sustained through the nurse's response delay.
    patient_ = physio::Patient{
        physio::nominal_parameters(physio::Archetype::kOpioidSensitive)};
    patient_.set_infusion_rate(physio::InfusionRate::mg_per_hour(6.0));
    auto& n = make();
    sim_.run_for(30_min);  // hypercapnia develops (EtCO2 > 55)
    ring();
    sim_.run_for(20_min);
    EXPECT_EQ(n.stats().rescues, 1u);
    EXPECT_GT(patient_.antagonist_level(), 0.0);
    ASSERT_TRUE(n.stats().first_rescue_latency_s.has_value());
    EXPECT_GT(*n.stats().first_rescue_latency_s, 0.0);
}

TEST_F(NurseTest, OneDispatchAtATime) {
    auto& n = make();
    for (int i = 0; i < 5; ++i) {
        ring();
        sim_.run_for(5_s);
    }
    EXPECT_EQ(n.stats().alarms_heard, 5u);
    EXPECT_EQ(n.stats().dispatches, 1u);  // the rest arrived mid-dispatch
}

TEST_F(NurseTest, FatigueGrowsWithAlarmBurden) {
    NurseConfig cfg;
    cfg.fatigue_per_alarm = 0.2;
    cfg.ignore_per_alarm = 0.0;  // isolate the slowdown mechanism
    auto& n = make(cfg);
    EXPECT_DOUBLE_EQ(n.current_fatigue_factor(), 1.0);
    // Ring 10 alarms spaced out enough for dispatch cycles to finish.
    for (int i = 0; i < 10; ++i) {
        ring();
        sim_.run_for(6_min);
    }
    EXPECT_GT(n.current_fatigue_factor(), 1.5);
    // The factor is capped.
    EXPECT_LE(n.current_fatigue_factor(), cfg.max_response_factor);
    // And it decays once the window slides past the burst.
    sim_.run_for(2_h);
    EXPECT_DOUBLE_EQ(n.current_fatigue_factor(), 1.0);
}

TEST_F(NurseTest, DesensitizationIgnoresAlarmsUnderFlood) {
    NurseConfig cfg;
    cfg.ignore_per_alarm = 0.05;
    auto& n = make(cfg);
    for (int i = 0; i < 60; ++i) {
        ring();
        sim_.run_for(1_min);
    }
    EXPECT_GT(n.stats().ignored, 0u);
    EXPECT_LT(n.stats().dispatches, n.stats().alarms_heard);
}

TEST_F(NurseTest, TopicFilterSelectsAlarmSource) {
    NurseConfig cfg;
    cfg.alarm_topic = "alarm/smart1";
    auto& n = make(cfg);
    ring("alarm/monitor1");  // wrong source
    sim_.run_for(10_min);
    EXPECT_EQ(n.stats().alarms_heard, 0u);
    ring("alarm/smart1");
    sim_.run_for(10_min);
    EXPECT_EQ(n.stats().alarms_heard, 1u);
}

TEST_F(NurseTest, StopDetaches) {
    auto& n = make();
    n.stop();
    ring();
    sim_.run_for(10_min);
    EXPECT_EQ(n.stats().alarms_heard, 0u);
}

TEST(NurseIntegration, RescueStopsPumpAndPreventsSevereHypoxemia) {
    // Full stack: sensitive patient, proxy pressing, open loop; the
    // nurse (summoned by the smart alarm) is the only protection.
    core::PcaScenarioConfig cfg;
    cfg.seed = 31;
    cfg.duration = 3_h;
    cfg.patient =
        physio::nominal_parameters(physio::Archetype::kOpioidSensitive);
    cfg.demand_mode = core::DemandMode::kProxy;
    cfg.interlock = std::nullopt;
    cfg.with_smart_alarm = true;

    core::PcaScenario scenario{cfg};
    devices::DeviceContext ctx{scenario.simulation(), scenario.bus(),
                               scenario.trace(), scenario.events()};
    NurseConfig ncfg;
    ncfg.alarm_topic = "alarm/smart1";
    NurseResponder nurse{ctx, "n1", scenario.patient(), ncfg};
    nurse.start();
    const auto r = scenario.run();

    EXPECT_GE(nurse.stats().rescues, 1u);
    EXPECT_FALSE(r.severe_hypoxemia);
    // The rescue paused the pump (remote stop executed).
    EXPECT_GT(scenario.pump().stats().remote_stops, 0u);
}

}  // namespace
