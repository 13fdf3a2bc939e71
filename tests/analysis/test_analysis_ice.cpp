/// \file test_analysis_ice.cpp
/// \brief Seeded-defect fixtures for rule ICE1 (assembly integration),
/// the adapter from live ice:: objects, and ICE1's agreement with
/// DeviceRegistry::resolve and Supervisor::deploy.

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/analysis.hpp"
#include "core/core.hpp"
#include "devices/devices.hpp"
#include "ice/ice.hpp"
#include "physio/population.hpp"

namespace {

using namespace mcps;
using namespace mcps::sim::literals;
using analysis::AppSpec;
using analysis::AssemblySpec;
using analysis::DeviceSpec;
using analysis::Finding;
using analysis::RuleId;
using devices::DeviceKind;

bool has_message(const std::vector<Finding>& fs, const std::string& needle) {
    return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
        return f.rule == RuleId::kICE1 &&
               f.message.find(needle) != std::string::npos;
    });
}

AssemblySpec pca_spec() {
    AssemblySpec spec;
    spec.name = "pca";
    spec.devices = {
        {{"pump1", DeviceKind::kInfusionPump, {"remote-stop"}}, {"ack/pump1"}},
        {{"oxi1", DeviceKind::kPulseOximeter, {"spo2"}}, {"vitals/bed1/spo2"}},
    };
    spec.apps = {
        {"interlock",
         {{DeviceKind::kInfusionPump, {"remote-stop"}, "pump"},
          {DeviceKind::kPulseOximeter, {"spo2"}, "oximeter"}},
         {"vitals/bed1/*", "ack/pump1"}},
    };
    return spec;
}

TEST(AnalysisICE1, CleanAssemblyHasNoFindings) {
    EXPECT_TRUE(analysis::lint_assembly(pca_spec()).empty());
}

TEST(AnalysisICE1, FlagsMissingDevice) {
    AssemblySpec spec = pca_spec();
    spec.devices.erase(spec.devices.begin());  // remove the pump

    const auto fs = analysis::lint_assembly(spec);
    ASSERT_FALSE(fs.empty());
    EXPECT_TRUE(has_message(fs, "satisfied by no registered device"));
    // The pump's ack input is also orphaned now.
    EXPECT_TRUE(has_message(fs, "produced by no device"));
}

TEST(AnalysisICE1, FlagsMissingCapability) {
    AssemblySpec spec = pca_spec();
    spec.devices[0].descriptor.capabilities = {"bolus"};  // pump lost remote-stop

    const auto fs = analysis::lint_assembly(spec);
    EXPECT_TRUE(has_message(fs, "satisfied by no registered device"));
}

TEST(AnalysisICE1, FlagsSlotContention) {
    // Two slots both need the single registered pump.
    AssemblySpec spec = pca_spec();
    spec.apps[0].requirements.push_back(
        {DeviceKind::kInfusionPump, {"remote-stop"}, "backup-pump"});

    const auto fs = analysis::lint_assembly(spec);
    EXPECT_TRUE(has_message(fs, "already consumed"));
}

TEST(AnalysisICE1, FlagsOrphanInputTopic) {
    AssemblySpec spec = pca_spec();
    spec.apps[0].inputs.push_back("vitals/bed1/etco2");  // no capnometer

    const auto fs = analysis::lint_assembly(spec);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_TRUE(has_message(fs, "produced by no device"));
    EXPECT_NE(fs[0].message.find("etco2"), std::string::npos);
}

TEST(AnalysisICE1, WildcardInputMatchesConcretePublication) {
    // "vitals/bed1/*" (input) must be satisfied by the oximeter's
    // concrete "vitals/bed1/spo2" publication — pattern/pattern
    // intersection works both ways.
    AssemblySpec spec = pca_spec();
    ASSERT_EQ(spec.apps[0].inputs[0], "vitals/bed1/*");
    EXPECT_TRUE(analysis::lint_assembly(spec).empty());
}

TEST(AnalysisICE1, FlagsDuplicateDeviceName) {
    AssemblySpec spec = pca_spec();
    spec.devices.push_back(spec.devices[0]);

    const auto fs = analysis::lint_assembly(spec);
    EXPECT_TRUE(has_message(fs, "duplicate device name"));
}

TEST(AnalysisICE1, AdapterDerivesSlotsFromLiveRegistry) {
    // Build the real thing — registry and app — and derive the spec.
    sim::Simulation simulation{7};
    sim::TraceRecorder trace;
    net::Bus bus{simulation, net::ChannelParameters{}};
    physio::Patient patient{
        physio::nominal_parameters(physio::Archetype::kTypicalAdult)};
    mcps::obs::EventLog events;
    devices::DeviceContext ctx{simulation, bus, trace, events};

    devices::GpcaPump pump{ctx, "pump1", patient, devices::Prescription{}};
    devices::PulseOximeter oxi{ctx, "oxi1", patient};
    ice::DeviceRegistry registry;
    registry.add(pump);
    registry.add(oxi);

    core::PcaInterlock app{ctx, "interlock", [] {
                               core::InterlockConfig cfg;
                               cfg.mode = core::InterlockMode::kSpO2Only;
                               return cfg;
                           }()};

    AssemblySpec spec =
        analysis::make_assembly_spec("live", registry, {&app});
    ASSERT_EQ(spec.devices.size(), 2u);
    ASSERT_EQ(spec.apps.size(), 1u);
    EXPECT_EQ(spec.apps[0].requirements.size(), 2u);
    // Slots resolve against the live capabilities; no topic contracts
    // were added, so ICE1 checks only the slot side — clean.
    EXPECT_TRUE(analysis::lint_assembly(spec).empty());

    // Dual-sensor mode needs a capnometer the bedside lacks.
    core::PcaInterlock dual{ctx, "dual", core::InterlockConfig{}};
    AssemblySpec spec2 =
        analysis::make_assembly_spec("live2", registry, {&dual});
    EXPECT_TRUE(has_message(analysis::lint_assembly(spec2),
                            "satisfied by no registered device"));
}

/// An app that only declares requirement slots and records what it is
/// bound to.
class SlotApp : public ice::VmdApp {
public:
    explicit SlotApp(std::vector<ice::Requirement> reqs)
        : ice::VmdApp{"slot-app"}, reqs_{std::move(reqs)} {}
    std::vector<ice::Requirement> requirements() const override {
        return reqs_;
    }
    void bind(const std::vector<ice::DeviceDescriptor>& devices) override {
        for (const auto& d : devices) bound.push_back(d.name);
    }
    void on_app_start() override {}
    void on_app_stop() override {}

    std::vector<std::string> bound;

private:
    std::vector<ice::Requirement> reqs_;
};

/// ICE1 certifies an assembly exactly when the supervisor can deploy it:
/// over one live registry, lint_assembly(make_assembly_spec(...)) reports
/// a slot finding iff DeviceRegistry::resolve fails, names the same first
/// missing slot, and Supervisor::deploy binds the devices resolve picked.
class Ice1ResolveAgreement : public ::testing::Test {
protected:
    Ice1ResolveAgreement()
        : sim_{42},
          bus_{sim_, net::ChannelParameters::ideal()},
          patient_{physio::nominal_parameters(physio::Archetype::kTypicalAdult)},
          ctx_{sim_, bus_, trace_, events_},
          pump_{ctx_, "pump1", patient_, devices::Prescription{}},
          oxi_a_{ctx_, "oxiA", patient_},
          oxi_b_{ctx_, "oxiB", patient_} {}

    void add(devices::Device& d) {
        d.set_heartbeat_period(2_s);
        d.start();
        registry_.add(d);
    }

    /// Lint, resolve and deploy \p app over registry_; returns the
    /// devices resolve picked (empty when it failed).
    std::vector<std::string> expect_agreement(SlotApp& app) {
        std::vector<std::string> slot_findings;
        for (const Finding& f : analysis::lint_assembly(
                 analysis::make_assembly_spec("bedside", registry_, {&app}))) {
            if (f.rule == RuleId::kICE1 && f.message.rfind("slot '", 0) == 0) {
                slot_findings.push_back(f.message);
            }
        }
        std::string missing;
        std::vector<std::string> picked;
        for (const auto& d : registry_.resolve(app.requirements(), missing)) {
            picked.push_back(d.name);
        }
        const bool resolves = !picked.empty();
        EXPECT_EQ(slot_findings.empty(), resolves);
        if (!resolves && !slot_findings.empty()) {
            EXPECT_EQ(slot_findings[0].rfind("slot '" + missing + "' ", 0), 0u)
                << slot_findings[0] << " vs missing " << missing;
        }

        ice::Supervisor sup{ctx_, "sup", registry_};
        sup.start();
        const ice::DeployResult deploy = sup.deploy(app);
        EXPECT_EQ(deploy.ok, resolves) << deploy.error;
        EXPECT_EQ(deploy.bound_devices, picked);
        EXPECT_EQ(app.bound, picked);
        return picked;
    }

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

TEST_F(Ice1ResolveAgreement, RedundantOximeters) {
    add(pump_);
    add(oxi_a_);
    add(oxi_b_);
    SlotApp app{{{DeviceKind::kInfusionPump, {"remote-stop"}, "pump"},
                 {DeviceKind::kPulseOximeter, {"spo2"}, "oximeter"},
                 {DeviceKind::kPulseOximeter, {"spo2"}, "backup-oximeter"}}};
    EXPECT_EQ(expect_agreement(app),
              (std::vector<std::string>{"pump1", "oxiA", "oxiB"}));
}

TEST_F(Ice1ResolveAgreement, NoCapnometer) {
    add(pump_);
    add(oxi_a_);
    SlotApp app{{{DeviceKind::kInfusionPump, {"remote-stop"}, "pump"},
                 {DeviceKind::kPulseOximeter, {"spo2"}, "oximeter"},
                 {DeviceKind::kCapnometer, {"etco2"}, "capnometer"}}};
    EXPECT_TRUE(expect_agreement(app).empty());
}

TEST_F(Ice1ResolveAgreement, OneDeviceEitherOfTwoSlotsCouldTake) {
    add(pump_);
    add(oxi_a_);
    // oxiA fits both oximeter slots; the first takes it and the second
    // is left with nothing, for ICE1 and resolve alike.
    SlotApp app{{{DeviceKind::kPulseOximeter, {}, "first-oximeter"},
                 {DeviceKind::kPulseOximeter, {"spo2"}, "second-oximeter"},
                 {DeviceKind::kInfusionPump, {}, "pump"}}};
    EXPECT_TRUE(expect_agreement(app).empty());
}

}  // namespace
