/// \file test_ice.cpp
/// \brief Tests for the ICE middleware: registry matching/resolution and
/// supervisor deployment + heartbeat liveness monitoring.

#include <gtest/gtest.h>

#include "devices/devices.hpp"
#include "ice/ice.hpp"
#include "physio/population.hpp"

namespace {

using namespace mcps;
using namespace mcps::sim::literals;

/// A trivial app used to observe supervisor callbacks.
class ProbeApp : public ice::VmdApp {
public:
    explicit ProbeApp(std::vector<ice::Requirement> reqs)
        : ice::VmdApp{"probe"}, reqs_{std::move(reqs)} {}

    std::vector<ice::Requirement> requirements() const override { return reqs_; }
    void bind(const std::vector<ice::DeviceDescriptor>& devices) override {
        for (const auto& d : devices) bound.push_back(d.name);
    }
    void on_app_start() override { ++starts; }
    void on_app_stop() override { ++stops; }
    void on_device_lost(const std::string& name) override {
        lost.push_back(name);
    }
    void on_device_recovered(const std::string& name) override {
        recovered.push_back(name);
    }

    std::vector<ice::Requirement> reqs_;
    std::vector<std::string> bound;
    std::vector<std::string> lost;
    std::vector<std::string> recovered;
    int starts = 0;
    int stops = 0;
};

class IceTest : public ::testing::Test {
protected:
    IceTest()
        : sim_{42},
          bus_{sim_, net::ChannelParameters::ideal()},
          patient_{physio::nominal_parameters(physio::Archetype::kTypicalAdult)},
          ctx_{sim_, bus_, trace_, events_},
          pump_{ctx_, "pump1", patient_, devices::Prescription{}},
          oxi_{ctx_, "oxi1", patient_},
          cap_{ctx_, "cap1", patient_} {}

    void start_all(mcps::sim::SimDuration hb = 2_s) {
        for (devices::Device* d :
             std::initializer_list<devices::Device*>{&pump_, &oxi_, &cap_}) {
            d->set_heartbeat_period(hb);
            d->start();
            registry_.add(*d);
        }
    }

    sim::Simulation sim_;
    net::Bus bus_;
    sim::TraceRecorder trace_;
    physio::Patient patient_;
    mcps::obs::EventLog events_;
    devices::DeviceContext ctx_;
    devices::GpcaPump pump_;
    devices::PulseOximeter oxi_;
    devices::Capnometer cap_;
    ice::DeviceRegistry registry_;
};

TEST_F(IceTest, RegistryAddFindRemove) {
    registry_.add(pump_);
    EXPECT_EQ(registry_.size(), 1u);
    ASSERT_NE(registry_.find("pump1"), nullptr);
    EXPECT_EQ(registry_.find("pump1")->kind, devices::DeviceKind::kInfusionPump);
    EXPECT_EQ(registry_.find("nope"), nullptr);
    EXPECT_THROW(registry_.add(pump_), std::invalid_argument);  // duplicate
    EXPECT_TRUE(registry_.remove("pump1"));
    EXPECT_FALSE(registry_.remove("pump1"));
    EXPECT_EQ(registry_.size(), 0u);
}

TEST_F(IceTest, ResolveAssignsDistinctDevices) {
    start_all();
    // Two oximeter requirements but only one oximeter present.
    std::vector<ice::Requirement> reqs{
        {devices::DeviceKind::kPulseOximeter, {"spo2"}, "oxi_a"},
        {devices::DeviceKind::kPulseOximeter, {"spo2"}, "oxi_b"},
    };
    std::string missing;
    auto got = registry_.resolve(reqs, missing);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(missing, "oxi_b");
    // Single requirement resolves.
    reqs.pop_back();
    got = registry_.resolve(reqs, missing);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].name, "oxi1");
}

TEST_F(IceTest, SupervisorDeploysAndStartsApp) {
    start_all();
    ice::Supervisor sup{ctx_, "sup1", registry_};
    sup.start();
    ProbeApp app{{{devices::DeviceKind::kInfusionPump, {}, "pump"},
                  {devices::DeviceKind::kPulseOximeter, {}, "oxi"}}};
    const auto result = sup.deploy(app);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.bound_devices,
              (std::vector<std::string>{"pump1", "oxi1"}));
    EXPECT_EQ(app.bound, result.bound_devices);
    EXPECT_EQ(app.starts, 1);
    EXPECT_TRUE(sup.is_deployed(app));
    EXPECT_EQ(sup.deployed_count(), 1u);
}

TEST_F(IceTest, DeployFailsOnMissingDevice) {
    start_all();
    ice::Supervisor sup{ctx_, "sup1", registry_};
    sup.start();
    ProbeApp app{{{devices::DeviceKind::kVentilator, {}, "ventilator"}}};
    const auto result = sup.deploy(app);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("ventilator"), std::string::npos);
    EXPECT_EQ(app.starts, 0);
}

TEST_F(IceTest, DeployRequiresRunningSupervisorAndRejectsDouble) {
    start_all();
    ice::Supervisor sup{ctx_, "sup1", registry_};
    ProbeApp app{{{devices::DeviceKind::kInfusionPump, {}, "pump"}}};
    EXPECT_FALSE(sup.deploy(app).ok);  // not started
    sup.start();
    EXPECT_TRUE(sup.deploy(app).ok);
    EXPECT_FALSE(sup.deploy(app).ok);  // already deployed
}

TEST_F(IceTest, UndeployStopsAppAndReleasesMonitoring) {
    start_all();
    ice::Supervisor sup{ctx_, "sup1", registry_};
    sup.start();
    ProbeApp app{{{devices::DeviceKind::kInfusionPump, {}, "pump"}}};
    ASSERT_TRUE(sup.deploy(app).ok);
    EXPECT_NE(sup.liveness("pump1"), nullptr);
    EXPECT_TRUE(sup.undeploy(app));
    EXPECT_EQ(app.stops, 1);
    EXPECT_FALSE(sup.is_deployed(app));
    EXPECT_EQ(sup.liveness("pump1"), nullptr);
    EXPECT_FALSE(sup.undeploy(app));
}

TEST_F(IceTest, HeartbeatLossDetectedWithinTimeout) {
    start_all();
    ice::SupervisorConfig cfg;
    cfg.heartbeat_timeout = 5_s;
    ice::Supervisor sup{ctx_, "sup1", registry_, cfg};
    sup.start();
    ProbeApp app{{{devices::DeviceKind::kPulseOximeter, {}, "oxi"}}};
    ASSERT_TRUE(sup.deploy(app).ok);
    sim_.run_for(10_s);
    EXPECT_TRUE(app.lost.empty());  // healthy heartbeats
    oxi_.crash();
    sim_.run_for(7_s);
    ASSERT_EQ(app.lost.size(), 1u);
    EXPECT_EQ(app.lost[0], "oxi1");
    EXPECT_EQ(sup.lost_events(), 1u);
    const auto* live = sup.liveness("oxi1");
    ASSERT_NE(live, nullptr);
    EXPECT_TRUE(live->lost);
}

TEST_F(IceTest, RecoveryAfterHeartbeatResumes) {
    start_all();
    ice::SupervisorConfig cfg;
    cfg.heartbeat_timeout = 5_s;
    ice::Supervisor sup{ctx_, "sup1", registry_, cfg};
    sup.start();
    ProbeApp app{{{devices::DeviceKind::kPulseOximeter, {}, "oxi"}}};
    ASSERT_TRUE(sup.deploy(app).ok);
    oxi_.crash();
    sim_.run_for(7_s);
    ASSERT_EQ(app.lost.size(), 1u);
    // Device restarts (stop resets crash flag, start resumes heartbeats).
    oxi_.stop();
    oxi_.start();
    sim_.run_for(5_s);
    ASSERT_EQ(app.recovered.size(), 1u);
    EXPECT_EQ(app.recovered[0], "oxi1");
    EXPECT_FALSE(sup.liveness("oxi1")->lost);
}

TEST_F(IceTest, ExplicitOfflineDetectedImmediately) {
    start_all();
    ice::SupervisorConfig cfg;
    cfg.heartbeat_timeout = 30_s;  // long timeout; offline must shortcut
    ice::Supervisor sup{ctx_, "sup1", registry_, cfg};
    sup.start();
    ProbeApp app{{{devices::DeviceKind::kCapnometer, {}, "cap"}}};
    ASSERT_TRUE(sup.deploy(app).ok);
    sim_.run_for(3_s);
    cap_.stop();  // graceful shutdown publishes "offline"
    sim_.run_for(1_s);
    ASSERT_EQ(app.lost.size(), 1u);
    EXPECT_EQ(app.lost[0], "cap1");
}

TEST_F(IceTest, SupervisorStopStopsApps) {
    start_all();
    ice::Supervisor sup{ctx_, "sup1", registry_};
    sup.start();
    ProbeApp app{{{devices::DeviceKind::kInfusionPump, {}, "pump"}}};
    ASSERT_TRUE(sup.deploy(app).ok);
    sup.stop();
    EXPECT_EQ(app.stops, 1);
    EXPECT_EQ(sup.deployed_count(), 0u);
}

TEST_F(IceTest, AssemblyTimeIsMeasured) {
    start_all();
    ice::Supervisor sup{ctx_, "sup1", registry_};
    sup.start();
    ProbeApp app{{{devices::DeviceKind::kInfusionPump, {}, "pump"}}};
    const auto r = sup.deploy(app);
    ASSERT_TRUE(r.ok);
    // Deployment is synchronous in simulated time.
    EXPECT_EQ(r.assembly_time, sim::SimDuration::zero());
}

TEST_F(IceTest, BadSupervisorConfigRejected) {
    ice::SupervisorConfig cfg;
    cfg.heartbeat_timeout = sim::SimDuration::zero();
    EXPECT_THROW(ice::Supervisor(ctx_, "s", registry_, cfg),
                 std::invalid_argument);
}

}  // namespace
