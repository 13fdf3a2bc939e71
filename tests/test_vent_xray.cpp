/// \file test_vent_xray.cpp
/// \brief Tests for the ventilator (safe-pause semantics, V1 auto-resume)
/// and the X-ray machine (motion-blur determination).

#include <gtest/gtest.h>

#include "devices/devices.hpp"
#include "physio/population.hpp"

namespace {

using namespace mcps;
using namespace mcps::sim::literals;

class VentXrayTest : public ::testing::Test {
protected:
    VentXrayTest()
        : sim_{42},
          bus_{sim_, net::ChannelParameters::ideal()},
          patient_{physio::nominal_parameters(physio::Archetype::kTypicalAdult)},
          ctx_{sim_, bus_, trace_, events_} {}

    sim::Simulation sim_;
    net::Bus bus_;
    sim::TraceRecorder trace_;
    physio::Patient patient_;
    mcps::obs::EventLog events_;
    devices::DeviceContext ctx_;
};

TEST_F(VentXrayTest, VentilatorStartsVentilating) {
    devices::Ventilator vent{ctx_, "vent1", patient_};
    vent.start();
    sim_.run_for(5_s);
    EXPECT_EQ(vent.mode(), devices::VentMode::kVentilating);
    EXPECT_TRUE(vent.chest_moving());
    EXPECT_TRUE(patient_.on_ventilator());
}

TEST_F(VentXrayTest, PauseStopsChestMotionAndBreathing) {
    devices::Ventilator vent{ctx_, "vent1", patient_};
    sim_.schedule_periodic(500_ms, [this] { patient_.step(0.5); });
    vent.start();
    sim_.run_for(5_s);
    EXPECT_TRUE(vent.pause(10_s));
    EXPECT_EQ(vent.mode(), devices::VentMode::kPaused);
    EXPECT_FALSE(vent.chest_moving());
    sim_.run_for(5_s);
    EXPECT_TRUE(patient_.is_apneic());
}

TEST_F(VentXrayTest, ResumeEndsPauseEarly) {
    devices::Ventilator vent{ctx_, "vent1", patient_};
    vent.start();
    sim_.run_for(1_s);
    vent.pause(20_s);
    sim_.run_for(3_s);
    vent.resume();
    EXPECT_EQ(vent.mode(), devices::VentMode::kVentilating);
    EXPECT_EQ(vent.stats().command_resumes, 1u);
    EXPECT_EQ(vent.stats().safety_auto_resumes, 0u);
    // The cancelled safety timer must not fire later.
    sim_.run_for(60_s);
    EXPECT_EQ(vent.mode(), devices::VentMode::kVentilating);
    EXPECT_EQ(vent.stats().safety_auto_resumes, 0u);
}

TEST_F(VentXrayTest, V1_SafetyAutoResumeAfterMaxPause) {
    devices::VentilatorConfig cfg;
    cfg.max_pause = 15_s;
    devices::Ventilator vent{ctx_, "vent1", patient_, cfg};
    vent.start();
    sim_.run_for(1_s);
    // Ask for far longer than allowed; the clamp applies.
    EXPECT_TRUE(vent.pause(10_min));
    sim_.run_for(14_s);
    EXPECT_EQ(vent.mode(), devices::VentMode::kPaused);
    sim_.run_for(2_s);
    EXPECT_EQ(vent.mode(), devices::VentMode::kVentilating);
    EXPECT_EQ(vent.stats().safety_auto_resumes, 1u);
}

TEST_F(VentXrayTest, PauseRejectedWhenNotVentilating) {
    devices::Ventilator vent{ctx_, "vent1", patient_};
    EXPECT_FALSE(vent.pause(5_s));  // not started
    vent.start();
    sim_.run_for(1_s);
    EXPECT_TRUE(vent.pause(5_s));
    EXPECT_FALSE(vent.pause(5_s));  // already paused
    EXPECT_FALSE(vent.pause(-(1_s)));
}

TEST_F(VentXrayTest, RemotePauseResumeCommands) {
    devices::Ventilator vent{ctx_, "vent1", patient_};
    vent.start();
    sim_.run_for(1_s);
    std::vector<net::AckPayload> acks;
    bus_.subscribe("t", "ack/vent1", [&](const net::Message& m) {
        if (const auto* a = net::payload_as<net::AckPayload>(m)) {
            acks.push_back(*a);
        }
    });
    net::CommandPayload pause;
    pause.action = "pause";
    pause.args["duration_s"] = 8.0;
    pause.command_seq = 1;
    bus_.publish("app", "cmd/vent1", pause);
    sim_.run_for(1_s);
    EXPECT_EQ(vent.mode(), devices::VentMode::kPaused);
    net::CommandPayload resume;
    resume.action = "resume";
    resume.command_seq = 2;
    bus_.publish("app", "cmd/vent1", resume);
    sim_.run_for(1_s);
    EXPECT_EQ(vent.mode(), devices::VentMode::kVentilating);
    ASSERT_EQ(acks.size(), 2u);
    EXPECT_TRUE(acks[0].success);
    EXPECT_TRUE(acks[1].success);
}

TEST_F(VentXrayTest, StandbyChestMotionFollowsPatient) {
    devices::Ventilator vent{ctx_, "vent1", patient_};
    // Not started: standby; healthy patient breathes spontaneously.
    EXPECT_TRUE(vent.chest_moving());
}

TEST_F(VentXrayTest, XrayRequiresMotionProbe) {
    EXPECT_THROW(devices::XRayMachine(ctx_, "x", nullptr),
                 std::invalid_argument);
}

TEST_F(VentXrayTest, XraySharpWhenStill) {
    devices::XRayMachine xray{ctx_, "x1", [] { return false; }};
    xray.start();
    EXPECT_TRUE(xray.expose());
    EXPECT_TRUE(xray.busy());
    EXPECT_FALSE(xray.expose());  // busy
    sim_.run_for(5_s);
    ASSERT_EQ(xray.results().size(), 1u);
    EXPECT_TRUE(xray.results()[0].sharp);
    EXPECT_DOUBLE_EQ(xray.results()[0].motion_fraction, 0.0);
    EXPECT_FALSE(xray.busy());
}

TEST_F(VentXrayTest, XrayBlurredWhenMoving) {
    devices::XRayMachine xray{ctx_, "x1", [] { return true; }};
    xray.start();
    xray.expose();
    sim_.run_for(5_s);
    ASSERT_EQ(xray.results().size(), 1u);
    EXPECT_FALSE(xray.results()[0].sharp);
    EXPECT_GT(xray.results()[0].motion_fraction, 0.9);
}

TEST_F(VentXrayTest, XrayPartialMotionThreshold) {
    // Motion only in the first 10% of the window: still sharp.
    devices::XRayConfig cfg;
    cfg.prep_time = 1_s;
    cfg.exposure = 1_s;
    cfg.blur_fraction_threshold = 0.15;
    bool moving = true;
    devices::XRayMachine xray{ctx_, "x1", [&] { return moving; }, cfg};
    xray.start();
    xray.expose();
    // Motion stops shortly after the exposure window begins.
    sim_.schedule_at(sim_.now() + 1_s + 80_ms, [&] { moving = false; });
    sim_.run_for(5_s);
    ASSERT_EQ(xray.results().size(), 1u);
    EXPECT_TRUE(xray.results()[0].sharp);
    EXPECT_GT(xray.results()[0].motion_fraction, 0.0);
    EXPECT_LE(xray.results()[0].motion_fraction, 0.15);
}

TEST_F(VentXrayTest, XrayRemoteExposeCommand) {
    devices::XRayMachine xray{ctx_, "x1", [] { return false; }};
    xray.start();
    std::optional<net::StatusPayload> image;
    bus_.subscribe("t", "image/x1", [&](const net::Message& m) {
        if (const auto* s = net::payload_as<net::StatusPayload>(m)) image = *s;
    });
    net::CommandPayload cmd;
    cmd.action = "expose";
    cmd.command_seq = 5;
    bus_.publish("app", "cmd/x1", cmd);
    sim_.run_for(5_s);
    ASSERT_TRUE(image.has_value());
    EXPECT_EQ(image->state, "sharp");
}

TEST_F(VentXrayTest, EndToEndPauseShootResume) {
    devices::Ventilator vent{ctx_, "vent1", patient_};
    devices::XRayMachine xray{ctx_, "x1",
                              [&vent] { return vent.chest_moving(); }};
    vent.start();
    xray.start();
    sim_.run_for(2_s);
    // Coordinated: pause, wait for prep+exposure, resume.
    vent.pause(10_s);
    xray.expose();
    sim_.run_for(5_s);
    vent.resume();
    ASSERT_EQ(xray.results().size(), 1u);
    EXPECT_TRUE(xray.results()[0].sharp);
    // Uncoordinated second shot while ventilating: blurred.
    sim_.run_for(5_s);
    xray.expose();
    sim_.run_for(5_s);
    ASSERT_EQ(xray.results().size(), 2u);
    EXPECT_FALSE(xray.results()[1].sharp);
}

}  // namespace
