/// \file test_xray_sync.cpp
/// \brief Tests for the X-ray/ventilator coordination app and the manual
/// baseline coordinator.

#include <gtest/gtest.h>

#include "core/xray_vent_app.hpp"
#include "ice/ice.hpp"
#include "physio/population.hpp"

namespace {

using namespace mcps;
using namespace mcps::sim::literals;
using core::ManualCoordinator;
using core::ManualCoordinatorConfig;
using core::XrayVentConfig;
using core::XrayVentSync;

class XraySyncTest : public ::testing::Test {
protected:
    explicit XraySyncTest(net::ChannelParameters ch =
                              net::ChannelParameters::ideal())
        : sim_{42},
          bus_{sim_, ch},
          patient_{physio::nominal_parameters(physio::Archetype::kTypicalAdult)},
          ctx_{sim_, bus_, trace_, events_},
          vent_{ctx_, "vent1", patient_},
          xray_{ctx_, "xray1", [this] { return vent_.chest_moving(); }} {}

    XrayVentSync& deploy(XrayVentConfig cfg = {}) {
        vent_.set_heartbeat_period(2_s);
        xray_.set_heartbeat_period(2_s);
        vent_.start();
        xray_.start();
        registry_.add(vent_);
        registry_.add(xray_);
        supervisor_.emplace(ctx_, "sup1", registry_);
        supervisor_->start();
        app_.emplace(ctx_, "sync", cfg);
        const auto r = supervisor_->deploy(*app_);
        if (!r.ok) throw std::runtime_error(r.error);
        // Step physiology so the ventilated patient stays realistic.
        sim_.schedule_periodic(500_ms, [this] { patient_.step(0.5); });
        sim_.run_for(2_s);
        return *app_;
    }

    sim::Simulation sim_;
    net::Bus bus_;
    sim::TraceRecorder trace_;
    physio::Patient patient_;
    mcps::obs::EventLog events_;
    devices::DeviceContext ctx_;
    devices::Ventilator vent_;
    devices::XRayMachine xray_;
    ice::DeviceRegistry registry_;
    std::optional<ice::Supervisor> supervisor_;
    std::optional<XrayVentSync> app_;
};

TEST_F(XraySyncTest, ConfigValidation) {
    XrayVentConfig cfg;
    cfg.retry_period = sim::SimDuration::zero();
    EXPECT_THROW(XrayVentSync(ctx_, "x", cfg), std::invalid_argument);
    cfg = {};
    cfg.max_retries = -1;
    EXPECT_THROW(XrayVentSync(ctx_, "x", cfg), std::invalid_argument);
}

TEST_F(XraySyncTest, HappyPathProducesSharpImageAndResumes) {
    auto& app = deploy();
    EXPECT_TRUE(app.request_exposure());
    sim_.run_for(30_s);
    ASSERT_EQ(app.outcomes().size(), 1u);
    const auto& o = app.outcomes()[0];
    EXPECT_TRUE(o.completed);
    EXPECT_TRUE(o.image_sharp);
    EXPECT_LT(o.apnea_s, 8.0);  // bounded pause
    EXPECT_EQ(vent_.mode(), devices::VentMode::kVentilating);
    EXPECT_EQ(vent_.stats().safety_auto_resumes, 0u);
}

TEST_F(XraySyncTest, RejectsWhenBusyOrNotStarted) {
    XrayVentSync unstarted{ctx_, "u", XrayVentConfig{}};
    EXPECT_FALSE(unstarted.request_exposure());
    auto& app = deploy();
    EXPECT_TRUE(app.request_exposure());
    EXPECT_FALSE(app.request_exposure());  // busy
}

TEST_F(XraySyncTest, SequentialProceduresAllSucceed) {
    auto& app = deploy();
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(app.request_exposure());
        sim_.run_for(30_s);
    }
    ASSERT_EQ(app.outcomes().size(), 5u);
    for (const auto& o : app.outcomes()) {
        EXPECT_TRUE(o.completed);
        EXPECT_TRUE(o.image_sharp);
    }
}

TEST_F(XraySyncTest, PhaseNames) {
    EXPECT_EQ(core::to_string(core::SyncPhase::kIdle), "idle");
    EXPECT_EQ(core::to_string(core::SyncPhase::kPausing), "pausing");
    EXPECT_EQ(core::to_string(core::SyncPhase::kExposing), "exposing");
}

/// Same tests under a lossy network: retries must still complete the
/// procedure, and the ventilator auto-resume backstops the worst case.
class XraySyncLossyTest : public XraySyncTest {
protected:
    XraySyncLossyTest() : XraySyncTest(lossy()) {}
    static net::ChannelParameters lossy() {
        net::ChannelParameters p;
        p.base_latency = 50_ms;
        p.jitter_sd = 20_ms;
        p.loss_probability = 0.3;
        return p;
    }
};

TEST_F(XraySyncLossyTest, RetriesCompleteDespiteLoss) {
    XrayVentConfig cfg;
    cfg.max_retries = 20;
    cfg.retry_period = 500_ms;
    auto& app = deploy(cfg);
    int completed = 0, sharp = 0;
    for (int i = 0; i < 10; ++i) {
        app.request_exposure();
        sim_.run_for(1_min);
        // Whatever happened, the ventilator must be ventilating again.
        EXPECT_EQ(vent_.mode(), devices::VentMode::kVentilating);
    }
    for (const auto& o : app.outcomes()) {
        completed += o.completed ? 1 : 0;
        sharp += o.image_sharp ? 1 : 0;
    }
    EXPECT_GE(completed, 8);  // most procedures complete
    EXPECT_GE(sharp, 7);
}

TEST_F(XraySyncLossyTest, AbortAfterMaxRetriesLeavesPatientSafe) {
    XrayVentConfig cfg;
    cfg.max_retries = 2;
    cfg.retry_period = 300_ms;
    auto& app = deploy(cfg);
    // Cut the ventilator off the network entirely: pause can never be
    // acked, the app must give up and the patient must keep breathing.
    bus_.endpoint_channel("vent1").add_outage(
        sim_.now(), sim_.now() + 1_h);
    app.request_exposure();
    sim_.run_for(2_min);
    ASSERT_EQ(app.outcomes().size(), 1u);
    EXPECT_FALSE(app.outcomes()[0].completed);
    // The pause command never arrived, so the ventilator never stopped.
    EXPECT_EQ(vent_.mode(), devices::VentMode::kVentilating);
    EXPECT_FALSE(patient_.is_apneic());
}

TEST(ManualCoordinatorTest, CompletesProcedureEventually) {
    sim::Simulation sim{11};
    net::Bus bus{sim, net::ChannelParameters::ideal()};
    sim::TraceRecorder trace;
    physio::Patient patient{
        physio::nominal_parameters(physio::Archetype::kTypicalAdult)};
    mcps::obs::EventLog events;
    devices::DeviceContext ctx{sim, bus, trace, events};
    devices::Ventilator vent{ctx, "v", patient};
    devices::XRayMachine xray{ctx, "x", [&] { return vent.chest_moving(); }};
    vent.start();
    xray.start();
    sim.schedule_periodic(500_ms, [&] { patient.step(0.5); });
    sim.run_for(2_s);

    ManualCoordinatorConfig mcfg;
    mcfg.premature_shot_probability = 0.0;
    ManualCoordinator manual{ctx, mcfg, sim.rng("manual")};
    manual.run_procedure(vent, xray);
    sim.run_for(5_min);
    ASSERT_EQ(manual.outcomes().size(), 1u);
    EXPECT_TRUE(manual.outcomes()[0].completed);
    // Ventilator back on (by hand or by safety timeout).
    EXPECT_EQ(vent.mode(), devices::VentMode::kVentilating);
}

TEST(ManualCoordinatorTest, DistractionLeansOnSafetyTimeout) {
    sim::Simulation sim{13};
    net::Bus bus{sim, net::ChannelParameters::ideal()};
    sim::TraceRecorder trace;
    physio::Patient patient{
        physio::nominal_parameters(physio::Archetype::kTypicalAdult)};
    mcps::obs::EventLog events;
    devices::DeviceContext ctx{sim, bus, trace, events};
    devices::VentilatorConfig vcfg;
    vcfg.max_pause = 20_s;
    devices::Ventilator vent{ctx, "v", patient, vcfg};
    devices::XRayMachine xray{ctx, "x", [&] { return vent.chest_moving(); }};
    vent.start();
    xray.start();
    sim.schedule_periodic(500_ms, [&] { patient.step(0.5); });
    sim.run_for(2_s);

    ManualCoordinatorConfig mcfg;
    mcfg.premature_shot_probability = 0.0;
    mcfg.distraction_probability = 1.0;  // always distracted
    mcfg.distraction_extra_s = 60.0;
    ManualCoordinator manual{ctx, mcfg, sim.rng("manual")};
    int auto_resumes_before = static_cast<int>(vent.stats().safety_auto_resumes);
    manual.run_procedure(vent, xray);
    sim.run_for(5_min);
    // The distracted operator outlasted max_pause: the device-local
    // safety auto-resume protected the patient (hazard H4).
    EXPECT_GT(static_cast<int>(vent.stats().safety_auto_resumes),
              auto_resumes_before);
    EXPECT_EQ(vent.mode(), devices::VentMode::kVentilating);
}

}  // namespace
