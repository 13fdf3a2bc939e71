/// \file test_assembly.cpp
/// \brief Tests for assembly-time certification (ice::check_assembly +
/// the generated GSN case).

#include <gtest/gtest.h>

#include "devices/devices.hpp"
#include "ice/assembly.hpp"
#include "ice/ice.hpp"
#include "physio/population.hpp"

namespace {

using namespace mcps;
using namespace mcps::sim::literals;

class ReqApp : public ice::VmdApp {
public:
    explicit ReqApp(std::vector<ice::Requirement> reqs)
        : ice::VmdApp{"req-app"}, reqs_{std::move(reqs)} {}
    std::vector<ice::Requirement> requirements() const override { return reqs_; }
    void bind(const std::vector<ice::DeviceDescriptor>&) override {}
    void on_app_start() override {}
    void on_app_stop() override {}

private:
    std::vector<ice::Requirement> reqs_;
};

class AssemblyTest : public ::testing::Test {
protected:
    AssemblyTest()
        : sim_{42},
          bus_{sim_, net::ChannelParameters::ideal()},
          patient_{physio::nominal_parameters(physio::Archetype::kTypicalAdult)},
          ctx_{sim_, bus_, trace_, events_},
          pump_{ctx_, "pump1", patient_, devices::Prescription{}},
          oxi_a_{ctx_, "oxiA", patient_},
          oxi_b_{ctx_, "oxiB", patient_} {}

    sim::Simulation sim_;
    net::Bus bus_;
    sim::TraceRecorder trace_;
    physio::Patient patient_;
    mcps::obs::EventLog events_;
    devices::DeviceContext ctx_;
    devices::GpcaPump pump_;
    devices::PulseOximeter oxi_a_;
    devices::PulseOximeter oxi_b_;
    ice::DeviceRegistry registry_;
};

TEST_F(AssemblyTest, SatisfiableWithRedundancy) {
    pump_.start();
    oxi_a_.start();
    oxi_b_.start();
    registry_.add(pump_);
    registry_.add(oxi_a_);
    registry_.add(oxi_b_);

    ReqApp app{{{devices::DeviceKind::kInfusionPump, {"remote-stop"}, "pump"},
                {devices::DeviceKind::kPulseOximeter, {"spo2"}, "oximeter"}}};
    const auto report = ice::check_assembly(app, registry_);
    EXPECT_TRUE(report.satisfiable);
    ASSERT_EQ(report.slots.size(), 2u);
    EXPECT_EQ(report.slots[0].chosen->name, "pump1");
    EXPECT_TRUE(report.slots[0].alternatives.empty());
    // The oximeter slot has a spare.
    EXPECT_EQ(report.slots[1].alternatives.size(), 1u);
    EXPECT_EQ(report.redundant_slots(), 1u);
    // The pump slot is flagged as a single point of failure.
    bool spof_warned = false;
    for (const auto& w : report.warnings) {
        spof_warned |= w.find("pump") != std::string::npos &&
                       w.find("no redundancy") != std::string::npos;
    }
    EXPECT_TRUE(spof_warned);
}

TEST_F(AssemblyTest, MissingDeviceMakesUnsatisfiable) {
    pump_.start();
    registry_.add(pump_);
    ReqApp app{{{devices::DeviceKind::kPulseOximeter, {"spo2"}, "oximeter"}}};
    const auto report = ice::check_assembly(app, registry_);
    EXPECT_FALSE(report.satisfiable);
    EXPECT_FALSE(report.slots[0].chosen.has_value());
}

TEST_F(AssemblyTest, NotRunningDeviceIsWarned) {
    registry_.add(pump_);  // registered but never started
    ReqApp app{{{devices::DeviceKind::kInfusionPump, {}, "pump"}}};
    const auto report = ice::check_assembly(app, registry_);
    EXPECT_TRUE(report.satisfiable);
    bool warned = false;
    for (const auto& w : report.warnings) {
        warned |= w.find("not running") != std::string::npos;
    }
    EXPECT_TRUE(warned);
}

TEST_F(AssemblyTest, GreedyAssignmentMatchesResolve) {
    oxi_a_.start();
    oxi_b_.start();
    registry_.add(oxi_a_);
    registry_.add(oxi_b_);
    ReqApp app{{{devices::DeviceKind::kPulseOximeter, {}, "first"},
                {devices::DeviceKind::kPulseOximeter, {}, "second"}}};
    const auto report = ice::check_assembly(app, registry_);
    ASSERT_TRUE(report.satisfiable);
    std::string missing;
    const auto resolved = registry_.resolve(app.requirements(), missing);
    ASSERT_EQ(resolved.size(), 2u);
    EXPECT_EQ(report.slots[0].chosen->name, resolved[0].name);
    EXPECT_EQ(report.slots[1].chosen->name, resolved[1].name);
    // Distinct devices per slot.
    EXPECT_NE(report.slots[0].chosen->name, report.slots[1].chosen->name);
}

TEST_F(AssemblyTest, CertifiableCaseWhenSatisfiable) {
    pump_.start();
    oxi_a_.start();
    oxi_b_.start();
    registry_.add(pump_);
    registry_.add(oxi_a_);
    registry_.add(oxi_b_);
    ReqApp app{{{devices::DeviceKind::kInfusionPump, {}, "pump"},
                {devices::DeviceKind::kPulseOximeter, {}, "oximeter"}}};
    const auto report = ice::check_assembly(app, registry_);
    const auto ac = ice::build_assembly_case(report);
    const auto audit = ac.audit();
    EXPECT_TRUE(audit.well_formed)
        << (audit.errors.empty() ? "" : audit.errors[0]);
    EXPECT_TRUE(audit.certifiable);
    // Warnings surfaced as assumptions.
    EXPECT_FALSE(audit.warnings.empty());
}

TEST_F(AssemblyTest, UncertifiableCaseWhenUnsatisfiable) {
    ReqApp app{{{devices::DeviceKind::kVentilator, {}, "ventilator"}}};
    const auto report = ice::check_assembly(app, registry_);
    const auto ac = ice::build_assembly_case(report);
    const auto audit = ac.audit();
    EXPECT_FALSE(audit.certifiable);
    EXPECT_GT(audit.failed_evidence, 0u);
}

TEST_F(AssemblyTest, ReportMatchesDeployOutcome) {
    // The certification answer must agree with what deploy() then does.
    pump_.set_heartbeat_period(2_s);
    pump_.start();
    oxi_a_.start();
    registry_.add(pump_);
    registry_.add(oxi_a_);
    ice::Supervisor sup{ctx_, "sup", registry_};
    sup.start();
    ReqApp ok_app{{{devices::DeviceKind::kInfusionPump, {}, "pump"}}};
    EXPECT_TRUE(ice::check_assembly(ok_app, registry_).satisfiable);
    EXPECT_TRUE(sup.deploy(ok_app).ok);

    ReqApp bad_app{{{devices::DeviceKind::kXRay, {}, "xray"}}};
    EXPECT_FALSE(ice::check_assembly(bad_app, registry_).satisfiable);
    EXPECT_FALSE(sup.deploy(bad_app).ok);
}

}  // namespace
