/// \file test_device_base.cpp
/// \brief Tests for the Device base-class contract (lifecycle, status
/// publications, heartbeats, crash semantics) plus pump timing details
/// not covered by the requirement tests.

#include <gtest/gtest.h>

#include "devices/devices.hpp"
#include "physio/population.hpp"

namespace {

using namespace mcps;
using namespace mcps::sim::literals;

/// Minimal concrete device for base-class behaviour.
class NullDevice : public devices::Device {
public:
    NullDevice(devices::DeviceContext ctx, std::string name)
        : devices::Device{ctx, std::move(name),
                          devices::DeviceKind::kMonitor} {
        add_capability("null");
    }
    int starts = 0;
    int stops = 0;

protected:
    void on_start() override { ++starts; }
    void on_stop() override { ++stops; }
};

class DeviceBaseTest : public ::testing::Test {
protected:
    DeviceBaseTest()
        : sim_{42},
          bus_{sim_, net::ChannelParameters::ideal()},
          ctx_{sim_, bus_, trace_, events_} {}

    sim::Simulation sim_;
    net::Bus bus_;
    sim::TraceRecorder trace_;
    mcps::obs::EventLog events_;
    devices::DeviceContext ctx_;
};

TEST_F(DeviceBaseTest, EmptyNameRejected) {
    EXPECT_THROW(NullDevice(ctx_, ""), std::invalid_argument);
}

TEST_F(DeviceBaseTest, StartStopLifecycle) {
    NullDevice d{ctx_, "d1"};
    EXPECT_FALSE(d.running());
    std::vector<std::string> statuses;
    bus_.subscribe("t", "status/d1", [&](const net::Message& m) {
        statuses.push_back(
            net::payload_as<net::StatusPayload>(m)->state);
    });
    d.start();
    EXPECT_TRUE(d.running());
    d.start();  // idempotent
    EXPECT_EQ(d.starts, 1);
    d.stop();
    EXPECT_FALSE(d.running());
    d.stop();  // idempotent
    EXPECT_EQ(d.stops, 1);
    sim_.run_all();
    ASSERT_EQ(statuses.size(), 2u);
    EXPECT_EQ(statuses[0], "online");
    EXPECT_EQ(statuses[1], "offline");
}

TEST_F(DeviceBaseTest, HeartbeatsCountUpAtConfiguredPeriod) {
    NullDevice d{ctx_, "d1"};
    d.set_heartbeat_period(2_s);
    std::vector<std::uint64_t> counts;
    bus_.subscribe("t", "heartbeat/d1", [&](const net::Message& m) {
        counts.push_back(net::payload_as<net::HeartbeatPayload>(m)->count);
    });
    d.start();
    sim_.run_for(10_s);
    ASSERT_EQ(counts.size(), 5u);
    EXPECT_EQ(counts.front(), 0u);
    EXPECT_EQ(counts.back(), 4u);
    d.stop();
    sim_.run_for(10_s);
    EXPECT_EQ(counts.size(), 5u);  // no heartbeats after stop
}

TEST_F(DeviceBaseTest, HeartbeatPeriodLockedAfterStart) {
    NullDevice d{ctx_, "d1"};
    d.start();
    EXPECT_THROW(d.set_heartbeat_period(1_s), std::logic_error);
    NullDevice e{ctx_, "d2"};
    EXPECT_THROW(e.set_heartbeat_period(-(1_s)), std::invalid_argument);
}

TEST_F(DeviceBaseTest, CrashIsSilentAndMarked) {
    NullDevice d{ctx_, "d1"};
    d.set_heartbeat_period(1_s);
    d.start();
    int heartbeats = 0;
    bus_.subscribe("t", "heartbeat/d1",
                   [&](const net::Message&) { ++heartbeats; });
    sim_.run_for(3_s);
    const int before = heartbeats;
    d.crash();
    sim_.run_for(10_s);
    EXPECT_EQ(heartbeats, before);  // silence, no offline status
    EXPECT_TRUE(d.crashed());
    ASSERT_EQ(events_.size(), 1u);
    const obs::Event& crash = events_.events()[0];
    EXPECT_EQ(crash.kind, obs::EventKind::kDeviceState);
    EXPECT_EQ(events_.symbol(crash.source), "d1");
    EXPECT_EQ(events_.symbol(crash.detail), "crash");
    // Restart clears the crash flag.
    d.stop();
    d.start();
    EXPECT_FALSE(d.crashed());
}

TEST_F(DeviceBaseTest, KindNamesComplete) {
    using devices::DeviceKind;
    EXPECT_EQ(devices::to_string(DeviceKind::kInfusionPump), "infusion-pump");
    EXPECT_EQ(devices::to_string(DeviceKind::kCapnometer), "capnometer");
    EXPECT_EQ(devices::to_string(DeviceKind::kVentilator), "ventilator");
    EXPECT_EQ(devices::to_string(DeviceKind::kXRay), "x-ray");
    EXPECT_EQ(devices::to_string(DeviceKind::kSupervisor), "supervisor");
}

class PumpTimingTest : public DeviceBaseTest {
protected:
    PumpTimingTest()
        : patient_{physio::nominal_parameters(physio::Archetype::kTypicalAdult)} {}
    physio::Patient patient_;
};

TEST_F(PumpTimingTest, BolusDeliveredAtConfiguredRate) {
    devices::Prescription rx;
    rx.basal = physio::InfusionRate::mg_per_hour(0.0);
    rx.bolus_dose = physio::Dose::mg(1.0);
    rx.bolus_rate_mg_per_min = 2.0;  // 1 mg takes 30 s
    rx.max_hourly = physio::Dose::mg(6.0);
    devices::GpcaPump pump{ctx_, "p", patient_, rx};
    pump.start();
    sim_.run_for(3_s);
    ASSERT_TRUE(pump.press_button());
    EXPECT_EQ(pump.state(), devices::PumpState::kBolusActive);
    sim_.run_for(15_s);
    // Roughly half the bolus delivered mid-way.
    EXPECT_NEAR(pump.stats().total_delivered.as_mg(), 0.5, 0.1);
    sim_.run_for(20_s);
    EXPECT_EQ(pump.state(), devices::PumpState::kInfusing);
    EXPECT_NEAR(pump.stats().total_delivered.as_mg(), 1.0, 1e-6);
}

TEST_F(PumpTimingTest, LockoutUntilAccessorTracksPrescription) {
    devices::Prescription rx;
    rx.lockout = 10_min;
    devices::GpcaPump pump{ctx_, "p", patient_, rx};
    pump.start();
    sim_.run_for(3_s);
    const auto before = sim_.now();
    ASSERT_TRUE(pump.press_button());
    EXPECT_EQ(pump.lockout_until(), before + 10_min);
}

TEST_F(PumpTimingTest, SlidingWindowForgetsDosesAfterAnHour) {
    devices::Prescription rx;
    rx.basal = physio::InfusionRate::mg_per_hour(0.0);
    rx.bolus_dose = physio::Dose::mg(1.0);
    rx.max_hourly = physio::Dose::mg(6.0);
    devices::GpcaPump pump{ctx_, "p", patient_, rx};
    pump.start();
    sim_.run_for(3_s);
    ASSERT_TRUE(pump.press_button());
    sim_.run_for(10_min);
    EXPECT_NEAR(pump.delivered_last_hour().as_mg(), 1.0, 1e-6);
    sim_.run_for(55_min);  // bolus now older than an hour
    // prune happens on tick; with zero basal the pump still ticks.
    EXPECT_NEAR(pump.delivered_last_hour().as_mg(), 0.0, 1e-6);
}

TEST_F(PumpTimingTest, SelfTestDelaysDelivery) {
    devices::PumpConfig cfg;
    cfg.selftest_duration = 10_s;
    devices::GpcaPump pump{ctx_, "p", patient_,
                           devices::Prescription{}, cfg};
    pump.start();
    EXPECT_EQ(pump.state(), devices::PumpState::kSelfTest);
    EXPECT_FALSE(pump.press_button());  // denied during self-test (R6)
    sim_.run_for(11_s);
    EXPECT_EQ(pump.state(), devices::PumpState::kInfusing);
}

}  // namespace
