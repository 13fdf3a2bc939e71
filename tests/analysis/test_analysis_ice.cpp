/// \file test_analysis_ice.cpp
/// \brief Seeded-defect fixtures for rule ICE1 (assembly integration)
/// plus the adapter from live ice:: objects.

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
        {"pump1", DeviceKind::kInfusionPump, {"remote-stop"}, {"ack/pump1"}},
        {"oxi1", DeviceKind::kPulseOximeter, {"spo2"}, {"vitals/bed1/spo2"}},
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
    spec.devices[0].capabilities = {"bolus"};  // pump lost remote-stop

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

}  // namespace
