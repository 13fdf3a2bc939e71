/// \file test_sensors.cpp
/// \brief Tests for the sensor channel pipeline and the oximeter /
/// capnometer / bedside-monitor devices.

#include <gtest/gtest.h>

#include <algorithm>

#include "devices/devices.hpp"
#include "physio/population.hpp"

namespace {

using namespace mcps;
using namespace mcps::sim::literals;

class SensorsTest : public ::testing::Test {
protected:
    SensorsTest()
        : sim_{42},
          bus_{sim_, net::ChannelParameters::ideal()},
          patient_{physio::nominal_parameters(physio::Archetype::kTypicalAdult)},
          ctx_{sim_, bus_, trace_} {}

    sim::Simulation sim_;
    net::Bus bus_;
    sim::TraceRecorder trace_;
    physio::Patient patient_;
    devices::DeviceContext ctx_;
};

TEST_F(SensorsTest, ChannelConfigValidation) {
    devices::SensorChannelConfig cfg;
    cfg.metric = "x";
    EXPECT_THROW(devices::SensorChannel(cfg, nullptr, "t", sim_.rng("r")),
                 std::invalid_argument);
    cfg.metric = "";
    EXPECT_THROW(
        devices::SensorChannel(cfg, [] { return 0.0; }, "t", sim_.rng("r")),
        std::invalid_argument);
    cfg.metric = "x";
    cfg.sample_period = sim::SimDuration::zero();
    EXPECT_THROW(
        devices::SensorChannel(cfg, [] { return 0.0; }, "t", sim_.rng("r")),
        std::invalid_argument);
}

TEST_F(SensorsTest, NoiselessChannelTracksTruth) {
    devices::SensorChannelConfig cfg;
    cfg.metric = "x";
    double truth = 10.0;
    devices::SensorChannel ch{cfg, [&] { return truth; }, "t", sim_.rng("r")};
    auto s = ch.sample(sim_.now());
    ASSERT_TRUE(s.has_value());
    EXPECT_DOUBLE_EQ(s->value, 10.0);
    EXPECT_TRUE(s->valid);
    truth = 20.0;
    EXPECT_DOUBLE_EQ(ch.sample(sim_.now() + 1_s)->value, 20.0);
}

TEST_F(SensorsTest, AveragingWindowLagsStepChange) {
    devices::SensorChannelConfig cfg;
    cfg.metric = "x";
    cfg.averaging_window = 8_s;
    double truth = 100.0;
    devices::SensorChannel ch{cfg, [&] { return truth; }, "t", sim_.rng("r")};
    for (int i = 0; i < 10; ++i) (void)ch.sample(sim_.now() + 1_s * i);
    truth = 80.0;  // step change
    const auto just_after = ch.sample(sim_.now() + 10_s);
    ASSERT_TRUE(just_after.has_value());
    // The moving average is still dominated by old samples.
    EXPECT_GT(just_after->value, 90.0);
    // After a full window, the reading converges.
    std::optional<mcps::net::VitalSignPayload> later;
    for (int i = 11; i < 20; ++i) later = ch.sample(sim_.now() + 1_s * i);
    ASSERT_TRUE(later.has_value());
    EXPECT_NEAR(later->value, 80.0, 2.5);
}

TEST_F(SensorsTest, NoiseHasConfiguredSpread) {
    devices::SensorChannelConfig cfg;
    cfg.metric = "x";
    cfg.noise_sd = 2.0;
    cfg.clamp_hi = 1e9;
    devices::SensorChannel ch{cfg, [] { return 50.0; }, "t", sim_.rng("r")};
    sim::RunningStats st;
    for (int i = 0; i < 5000; ++i) st.add(ch.sample(sim_.now() + 1_s * i)->value);
    EXPECT_NEAR(st.mean(), 50.0, 0.2);
    EXPECT_NEAR(st.stddev(), 2.0, 0.2);
}

TEST_F(SensorsTest, DropoutSilencesChannel) {
    devices::SensorChannelConfig cfg;
    cfg.metric = "x";
    devices::SensorChannel ch{cfg, [] { return 1.0; }, "t", sim_.rng("r")};
    ch.force_dropout(sim_.now(), 10_s);
    EXPECT_TRUE(ch.in_dropout(sim_.now()));
    EXPECT_FALSE(ch.sample(sim_.now()).has_value());
    EXPECT_FALSE(ch.sample(sim_.now() + 9_s).has_value());
    EXPECT_TRUE(ch.sample(sim_.now() + 10_s).has_value());
}

TEST_F(SensorsTest, ArtifactBiasesAndOptionallyFlags) {
    devices::SensorChannelConfig cfg;
    cfg.metric = "x";
    cfg.artifact_magnitude = -20.0;
    cfg.artifact_flagged = true;
    devices::SensorChannel ch{cfg, [] { return 95.0; }, "t", sim_.rng("r")};
    ch.force_artifact(sim_.now(), 5_s);
    const auto s = ch.sample(sim_.now());
    ASSERT_TRUE(s.has_value());
    EXPECT_NEAR(s->value, 75.0, 1e-9);
    EXPECT_FALSE(s->valid);  // flagged
    // After the burst: clean again.
    const auto s2 = ch.sample(sim_.now() + 6_s);
    EXPECT_NEAR(s2->value, 95.0, 1e-9);
    EXPECT_TRUE(s2->valid);
}

TEST_F(SensorsTest, ClampRespectsPhysicalRange) {
    devices::SensorChannelConfig cfg;
    cfg.metric = "spo2";
    cfg.clamp_lo = 0.0;
    cfg.clamp_hi = 100.0;
    cfg.artifact_magnitude = +50.0;
    devices::SensorChannel ch{cfg, [] { return 98.0; }, "t", sim_.rng("r")};
    ch.force_artifact(sim_.now(), 5_s);
    EXPECT_DOUBLE_EQ(ch.sample(sim_.now())->value, 100.0);
}

TEST_F(SensorsTest, OximeterPublishesSpo2AndPulse) {
    devices::PulseOximeter oxi{ctx_, "oxi1", patient_};
    oxi.start();
    int spo2_count = 0, pr_count = 0;
    double last_spo2 = 0;
    bus_.subscribe("t", "vitals/bed1/spo2", [&](const net::Message& m) {
        ++spo2_count;
        last_spo2 = net::payload_as<net::VitalSignPayload>(m)->value;
    });
    bus_.subscribe("t", "vitals/bed1/pulse_rate",
                   [&](const net::Message&) { ++pr_count; });
    sim_.run_for(30_s);
    EXPECT_EQ(spo2_count, 30);
    EXPECT_EQ(pr_count, 30);
    EXPECT_NEAR(last_spo2, 97.0, 3.0);
    oxi.stop();
}

TEST_F(SensorsTest, OximeterForcedDropoutSilencesBothChannels) {
    devices::PulseOximeter oxi{ctx_, "oxi1", patient_};
    oxi.start();
    int messages = 0;
    bus_.subscribe("t", "vitals/*", [&](const net::Message&) { ++messages; });
    oxi.force_dropout(20_s);
    sim_.run_for(19_s);
    EXPECT_EQ(messages, 0);
    EXPECT_TRUE(oxi.in_dropout());
    sim_.run_for(20_s);
    EXPECT_GT(messages, 0);
}

/// Trace signals are resolved on the first sample, not when the device
/// starts: a probe that never reads leaves no empty signal behind to show
/// up in signal_names(), write_csv() or the trace fingerprint.
TEST_F(SensorsTest, OximeterWithProbeOffCreatesNoTraceSignal) {
    devices::PulseOximeterConfig cfg;
    cfg.dropout_probability = 1.0;  // the probe never reads
    devices::PulseOximeter oxi{ctx_, "oxi1", patient_, cfg};
    oxi.start();
    sim_.run_for(2_min);
    const auto names = trace_.signal_names();
    EXPECT_EQ(std::find(names.begin(), names.end(), "sensor/oxi1/spo2"),
              names.end());
    EXPECT_EQ(trace_.find("sensor/oxi1/spo2"), nullptr);

    devices::PulseOximeter reading{ctx_, "oxi2", patient_};
    reading.start();
    sim_.run_for(5_s);
    const sim::Signal* spo2 = trace_.find("sensor/oxi2/spo2");
    ASSERT_NE(spo2, nullptr);
    EXPECT_EQ(spo2->size(), 5u);
}

TEST_F(SensorsTest, CapnometerTracksEtco2AndRr) {
    devices::Capnometer cap{ctx_, "cap1", patient_};
    cap.start();
    double last_etco2 = -1, last_rr = -1;
    bus_.subscribe("t", "vitals/bed1/etco2", [&](const net::Message& m) {
        last_etco2 = net::payload_as<net::VitalSignPayload>(m)->value;
    });
    bus_.subscribe("t", "vitals/bed1/resp_rate", [&](const net::Message& m) {
        last_rr = net::payload_as<net::VitalSignPayload>(m)->value;
    });
    sim_.run_for(30_s);
    EXPECT_NEAR(last_etco2, 36.0, 5.0);
    EXPECT_NEAR(last_rr, 14.0, 3.0);
}

TEST_F(SensorsTest, MonitorFiresThresholdAlarmOnLowSpo2) {
    auto cfg = devices::MonitorConfig::adult_defaults();
    devices::BedsideMonitor mon{ctx_, "mon1", cfg};
    mon.start();
    bus_.publish("oxi", "vitals/bed1/spo2",
                 net::VitalSignPayload{"spo2", 85.0, true});
    sim_.run_all();
    ASSERT_EQ(mon.alarms().size(), 1u);
    EXPECT_EQ(mon.alarms()[0].metric, "spo2");
    EXPECT_EQ(mon.alarms()[0].reason, "low");
    const auto view = mon.latest("spo2");
    ASSERT_TRUE(view.has_value());
    EXPECT_DOUBLE_EQ(view->value, 85.0);
}

TEST_F(SensorsTest, MonitorRearmSuppressesRepeats) {
    auto cfg = devices::MonitorConfig::adult_defaults();
    cfg.rearm = 30_s;
    devices::BedsideMonitor mon{ctx_, "mon1", cfg};
    mon.start();
    for (int i = 0; i < 10; ++i) {
        bus_.publish("oxi", "vitals/bed1/spo2",
                     net::VitalSignPayload{"spo2", 85.0, true});
        sim_.run_for(1_s);
    }
    EXPECT_EQ(mon.alarms().size(), 1u);  // one alarm, not ten
    sim_.run_for(30_s);
    bus_.publish("oxi", "vitals/bed1/spo2",
                 net::VitalSignPayload{"spo2", 85.0, true});
    sim_.run_all();
    EXPECT_EQ(mon.alarms().size(), 2u);  // re-armed
}

TEST_F(SensorsTest, MonitorPersistenceRequiresStreak) {
    devices::MonitorConfig cfg;
    cfg.rules = {devices::ThresholdRule{"spo2", 90.0, 1e300, 3}};
    devices::BedsideMonitor mon{ctx_, "mon1", cfg};
    mon.start();
    auto push = [&](double v) {
        bus_.publish("oxi", "vitals/bed1/spo2",
                     net::VitalSignPayload{"spo2", v, true});
        sim_.run_for(1_s);
    };
    push(85);
    push(85);
    push(95);  // streak broken
    push(85);
    push(85);
    EXPECT_EQ(mon.alarms().size(), 0u);
    push(85);  // third consecutive
    EXPECT_EQ(mon.alarms().size(), 1u);
}

TEST_F(SensorsTest, MonitorStalenessDetection) {
    devices::BedsideMonitor mon{ctx_, "mon1",
                                devices::MonitorConfig::adult_defaults()};
    mon.start();
    EXPECT_TRUE(mon.is_stale("spo2"));  // never seen
    bus_.publish("oxi", "vitals/bed1/spo2",
                 net::VitalSignPayload{"spo2", 97.0, true});
    sim_.run_for(1_s);
    EXPECT_FALSE(mon.is_stale("spo2"));
    sim_.run_for(30_s);
    EXPECT_TRUE(mon.is_stale("spo2"));
}

TEST_F(SensorsTest, MonitorHighThresholdFires) {
    devices::BedsideMonitor mon{ctx_, "mon1",
                                devices::MonitorConfig::adult_defaults()};
    mon.start();
    bus_.publish("cap", "vitals/bed1/etco2",
                 net::VitalSignPayload{"etco2", 70.0, true});
    sim_.run_all();
    ASSERT_EQ(mon.alarms().size(), 1u);
    EXPECT_EQ(mon.alarms()[0].reason, "high");
}

TEST_F(SensorsTest, DeviceMetadata) {
    devices::PulseOximeter oxi{ctx_, "oxi1", patient_};
    EXPECT_EQ(oxi.kind(), devices::DeviceKind::kPulseOximeter);
    const auto& caps = oxi.capabilities();
    EXPECT_NE(std::find(caps.begin(), caps.end(), "spo2"), caps.end());
    EXPECT_EQ(devices::to_string(oxi.kind()), "pulse-oximeter");
    EXPECT_THROW(
        devices::PulseOximeter(ctx_, "", patient_), std::invalid_argument);
}

}  // namespace
