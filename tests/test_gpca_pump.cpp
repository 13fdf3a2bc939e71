/// \file test_gpca_pump.cpp
/// \brief The GPCA pump's safety requirements R1-R6, exercised on the
/// executable device (the same requirements are model-checked in
/// test_reachability.cpp — the paper's two-pronged assurance story).

#include <gtest/gtest.h>

#include "devices/gpca_pump.hpp"
#include "net/bus.hpp"
#include "physio/population.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"

namespace {

using namespace mcps;
using namespace mcps::sim::literals;
using devices::GpcaPump;
using devices::Prescription;
using devices::PumpAlarm;
using devices::PumpConfig;
using devices::PumpState;
using physio::Dose;

/// Common fixture: ideal network, default patient, pump started and
/// through self-test.
class GpcaPumpTest : public ::testing::Test {
protected:
    GpcaPumpTest()
        : sim_{42},
          bus_{sim_, net::ChannelParameters::ideal()},
          patient_{physio::nominal_parameters(physio::Archetype::kTypicalAdult)},
          ctx_{sim_, bus_, trace_, events_} {}

    GpcaPump& make_pump(Prescription rx = {}, PumpConfig cfg = {}) {
        pump_ = std::make_unique<GpcaPump>(ctx_, "pump1", patient_, rx, cfg);
        pump_->start();
        sim_.run_for(3_s);  // through self-test
        return *pump_;
    }

    sim::Simulation sim_;
    net::Bus bus_;
    sim::TraceRecorder trace_;
    physio::Patient patient_;
    mcps::obs::EventLog events_;
    devices::DeviceContext ctx_;
    std::unique_ptr<GpcaPump> pump_;
};

TEST_F(GpcaPumpTest, PowersUpThroughSelfTestIntoInfusing) {
    auto& pump = make_pump();
    EXPECT_EQ(pump.state(), PumpState::kInfusing);
    EXPECT_TRUE(pump.delivering());
}

TEST_F(GpcaPumpTest, PrescriptionValidation) {
    Prescription rx;
    rx.bolus_dose = Dose::mg(0);
    EXPECT_THROW(rx.validate(), std::invalid_argument);
    rx = {};
    rx.lockout = sim::SimDuration::zero();
    EXPECT_THROW(rx.validate(), std::invalid_argument);
    rx = {};
    rx.bolus_dose = Dose::mg(10.0);  // exceeds hourly cap
    EXPECT_THROW(rx.validate(), std::invalid_argument);
    rx = {};
    rx.bolus_rate_mg_per_min = 0;
    EXPECT_THROW(rx.validate(), std::invalid_argument);
}

TEST_F(GpcaPumpTest, BasalDeliveryAccumulates) {
    auto& pump = make_pump();
    sim_.run_for(1_h);
    // 0.5 mg/h basal for ~1 h.
    EXPECT_NEAR(pump.stats().total_delivered.as_mg(), 0.5, 0.05);
}

TEST_F(GpcaPumpTest, R1_LockoutBlocksSecondBolus) {
    auto& pump = make_pump();
    EXPECT_TRUE(pump.press_button());
    sim_.run_for(1_min);  // bolus delivered, still in lockout
    EXPECT_FALSE(pump.press_button());
    EXPECT_EQ(pump.stats().denied_lockout, 1u);
    // After the 8-minute lockout, a new bolus is granted.
    sim_.run_for(8_min);
    EXPECT_TRUE(pump.press_button());
    EXPECT_EQ(pump.stats().boluses_delivered, 2u);
}

TEST_F(GpcaPumpTest, R1_RequestDuringActiveBolusDenied) {
    auto& pump = make_pump();
    EXPECT_TRUE(pump.press_button());
    // Bolus is being delivered right now (0.5 mg at 2 mg/min = 15 s).
    EXPECT_FALSE(pump.press_button());
    EXPECT_EQ(pump.stats().denied_lockout, 1u);
}

TEST_F(GpcaPumpTest, R2_HourlyCapDeniesBolusesAndRaisesAdvisory) {
    Prescription rx;
    rx.basal = physio::InfusionRate::mg_per_hour(0.0);
    rx.bolus_dose = Dose::mg(1.0);
    rx.lockout = 5_min;
    rx.max_hourly = Dose::mg(3.0);
    auto& pump = make_pump(rx);
    int granted = 0;
    for (int i = 0; i < 8; ++i) {
        if (pump.press_button()) ++granted;
        sim_.run_for(6_min);
    }
    // Only 3 mg fit in the first hour; within 48 min only 3 grants fit.
    EXPECT_EQ(granted, 3);
    EXPECT_GT(pump.stats().denied_hourly, 0u);
    EXPECT_LE(pump.delivered_last_hour().as_mg(), 3.0 + 1e-9);
}

TEST_F(GpcaPumpTest, R2_SlidingWindowNeverExceedsCap) {
    Prescription rx;
    rx.basal = physio::InfusionRate::mg_per_hour(4.0);
    rx.bolus_dose = Dose::mg(1.0);
    rx.lockout = 6_min;
    rx.max_hourly = Dose::mg(4.0);
    auto& pump = make_pump(rx);
    // Hammer the button; basal alone would hit the cap.
    for (int i = 0; i < 40; ++i) {
        pump.press_button();
        sim_.run_for(7_min);
        ASSERT_LE(pump.delivered_last_hour().as_mg(), 4.0 + 1e-6);
    }
}

TEST_F(GpcaPumpTest, R3_CriticalAlarmStopsDelivery) {
    auto& pump = make_pump();
    pump.press_button();
    sim_.run_for(5_s);
    pump.inject_fault(PumpAlarm::kOcclusion);
    EXPECT_EQ(pump.state(), PumpState::kAlarm);
    EXPECT_FALSE(pump.delivering());
    const double delivered = pump.stats().total_delivered.as_mg();
    sim_.run_for(10_min);
    EXPECT_DOUBLE_EQ(pump.stats().total_delivered.as_mg(), delivered);
}

TEST_F(GpcaPumpTest, R3_AlarmClearRequiresOperator) {
    auto& pump = make_pump();
    pump.inject_fault(PumpAlarm::kAirInLine);
    EXPECT_EQ(pump.state(), PumpState::kAlarm);
    pump.clear_alarm();
    EXPECT_EQ(pump.state(), PumpState::kIdle);
    EXPECT_FALSE(pump.delivering());
    pump.operator_resume();
    EXPECT_EQ(pump.state(), PumpState::kInfusing);
}

TEST_F(GpcaPumpTest, R4_RemoteStopViaCommandIsAcked) {
    auto& pump = make_pump();
    std::optional<net::AckPayload> ack;
    bus_.subscribe("test", "ack/pump1", [&](const net::Message& m) {
        if (const auto* a = net::payload_as<net::AckPayload>(m)) ack = *a;
    });
    net::CommandPayload cmd;
    cmd.action = "stop_infusion";
    cmd.command_seq = 77;
    bus_.publish("supervisor", "cmd/pump1", cmd);
    sim_.run_for(2_s);
    EXPECT_EQ(pump.state(), PumpState::kPaused);
    EXPECT_FALSE(pump.delivering());
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->command_seq, 77u);
    EXPECT_TRUE(ack->success);
    EXPECT_EQ(pump.stats().remote_stops, 1u);
}

TEST_F(GpcaPumpTest, R4_RemoteResumeRestartsBasal) {
    auto& pump = make_pump();
    net::CommandPayload stop;
    stop.action = "stop_infusion";
    stop.command_seq = 1;
    bus_.publish("supervisor", "cmd/pump1", stop);
    sim_.run_for(1_s);
    ASSERT_EQ(pump.state(), PumpState::kPaused);
    net::CommandPayload resume;
    resume.action = "resume";
    resume.command_seq = 2;
    bus_.publish("supervisor", "cmd/pump1", resume);
    sim_.run_for(1_s);
    EXPECT_EQ(pump.state(), PumpState::kInfusing);
}

TEST_F(GpcaPumpTest, RemoteBolusRequestHonorsLockout) {
    auto& pump = make_pump();
    auto send_bolus_request = [&](std::uint64_t seq) {
        net::CommandPayload cmd;
        cmd.action = "bolus_request";
        cmd.command_seq = seq;
        bus_.publish("supervisor", "cmd/pump1", cmd);
        sim_.run_for(1_s);
    };
    send_bolus_request(1);
    EXPECT_EQ(pump.stats().boluses_delivered, 1u);
    send_bolus_request(2);
    EXPECT_EQ(pump.stats().boluses_delivered, 1u);  // lockout holds (R1)
    EXPECT_EQ(pump.stats().denied_lockout, 1u);
}

TEST_F(GpcaPumpTest, UnknownCommandNacked) {
    make_pump();
    std::optional<net::AckPayload> ack;
    bus_.subscribe("test", "ack/pump1", [&](const net::Message& m) {
        if (const auto* a = net::payload_as<net::AckPayload>(m)) ack = *a;
    });
    net::CommandPayload cmd;
    cmd.action = "fly_to_moon";
    cmd.command_seq = 9;
    bus_.publish("x", "cmd/pump1", cmd);
    sim_.run_for(1_s);
    ASSERT_TRUE(ack.has_value());
    EXPECT_FALSE(ack->success);
}

TEST_F(GpcaPumpTest, R5_EmptyReservoirStopsAndLatches) {
    Prescription rx;
    rx.basal = physio::InfusionRate::mg_per_hour(4.0);
    PumpConfig cfg;
    cfg.reservoir = Dose::mg(1.0);  // tiny reservoir: empty in 15 min
    auto& pump = make_pump(rx, cfg);
    sim_.run_for(30_min);
    EXPECT_EQ(pump.state(), PumpState::kAlarm);
    EXPECT_EQ(pump.alarm(), PumpAlarm::kReservoirEmpty);
    EXPECT_LE(pump.stats().total_delivered.as_mg(), 1.0 + 1e-9);
    // Cannot clear while the reservoir is still empty.
    pump.clear_alarm();
    EXPECT_EQ(pump.state(), PumpState::kAlarm);
}

TEST_F(GpcaPumpTest, R6_RequestsWhilePausedDeniedNotQueued) {
    auto& pump = make_pump();
    pump.operator_pause();
    EXPECT_FALSE(pump.press_button());
    EXPECT_EQ(pump.stats().denied_state, 1u);
    pump.operator_resume();
    sim_.run_for(1_s);
    // The denied request did NOT turn into a bolus.
    EXPECT_EQ(pump.stats().boluses_delivered, 0u);
}

TEST_F(GpcaPumpTest, PatientActuallyReceivesDrug) {
    auto& pump = make_pump();
    pump.press_button();
    sim_.run_for(2_min);
    EXPECT_GT(patient_.pk().total_delivered().as_mg(), 0.4);
    EXPECT_NEAR(patient_.pk().total_delivered().as_mg(),
                pump.stats().total_delivered.as_mg(), 1e-9);
}

TEST_F(GpcaPumpTest, SetPrescriptionOnlyWhenNotDelivering) {
    auto& pump = make_pump();
    Prescription rx;
    EXPECT_THROW(pump.set_prescription(rx), std::logic_error);
    pump.operator_pause();
    EXPECT_NO_THROW(pump.set_prescription(rx));
}

TEST_F(GpcaPumpTest, StopPowersDown) {
    auto& pump = make_pump();
    pump.stop();
    EXPECT_EQ(pump.state(), PumpState::kOff);
    EXPECT_FALSE(pump.running());
}

TEST_F(GpcaPumpTest, CrashSilencesPublications) {
    auto& pump = make_pump();
    int status_count = 0;
    bus_.subscribe("test", "status/pump1",
                   [&](const net::Message&) { ++status_count; });
    sim_.run_for(10_s);
    const int before = status_count;
    EXPECT_GT(before, 0);
    pump.crash();
    sim_.run_for(30_s);
    EXPECT_EQ(status_count, before);
    EXPECT_TRUE(pump.crashed());
}

/// Parameterized sweep: the sliding-window cap holds across prescription
/// shapes (property-style check of R2).
class PumpCapProperty : public ::testing::TestWithParam<std::tuple<double, int>> {
};

TEST_P(PumpCapProperty, WindowCapHolds) {
    const auto [cap_mg, lockout_min] = GetParam();
    sim::Simulation sim{7};
    net::Bus bus{sim, net::ChannelParameters::ideal()};
    sim::TraceRecorder trace;
    physio::Patient patient{
        physio::nominal_parameters(physio::Archetype::kTypicalAdult)};
    mcps::obs::EventLog events;
    devices::DeviceContext ctx{sim, bus, trace, events};

    Prescription rx;
    rx.basal = physio::InfusionRate::mg_per_hour(cap_mg);  // aggressive
    rx.bolus_dose = Dose::mg(std::min(1.0, cap_mg));
    rx.lockout = sim::SimDuration::minutes(lockout_min);
    rx.max_hourly = Dose::mg(cap_mg);
    PumpConfig cfg;
    cfg.reservoir = Dose::mg(1000.0);
    GpcaPump pump{ctx, "p", patient, rx, cfg};
    pump.start();
    sim.run_for(3_s);
    for (int i = 0; i < 30; ++i) {
        pump.press_button();
        sim.run_for(sim::SimDuration::minutes(lockout_min) + 30_s);
        ASSERT_LE(pump.delivered_last_hour().as_mg(), cap_mg + 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PrescriptionGrid, PumpCapProperty,
    ::testing::Combine(::testing::Values(2.0, 4.0, 8.0),
                       ::testing::Values(5, 10, 15)));

}  // namespace
