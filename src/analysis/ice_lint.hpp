/// \file ice_lint.hpp
/// \brief Rule ICE1: static integration check of an ICE assembly.
///
/// An on-demand MCPS is only safe if the pieces actually fit: every
/// requirement slot an app declares must be satisfiable by a distinct
/// registered device (ice::assign_slots, the assignment
/// ice::DeviceRegistry::resolve makes), and every data input the supervisor
/// logic consumes (vitals topics, command acks, images) must be
/// produced by some device in the assembly. Silent integration defects
/// — a missing capnometer, an alarm input nothing publishes — are
/// exactly the failure class the MCPS interoperability surveys blame,
/// and they are detectable without running a tick.
///
/// The check runs over a declarative AssemblySpec. Specs can be written
/// by hand (fixtures) or derived from live ice:: objects with
/// make_assembly_spec(); published/consumed topic patterns follow
/// net::topic_matches syntax.

#pragma once

#include <string>
#include <vector>

#include "devices/device.hpp"
#include "finding.hpp"
#include "ice/app.hpp"
#include "ice/registry.hpp"

namespace mcps::analysis {

/// One device in the assembly, as the registry describes it, plus the
/// topics it publishes (its data-plane contract).
struct DeviceSpec {
    ice::DeviceDescriptor descriptor;
    /// Topic patterns this device publishes (net::topic_matches syntax).
    std::vector<std::string> publishes;
};

/// One app in the assembly: its requirement slots and the topic
/// patterns it subscribes to.
struct AppSpec {
    std::string name;
    std::vector<ice::Requirement> requirements;
    /// Topic patterns the app consumes. Every one must be matched by a
    /// publication of some device in the assembly.
    std::vector<std::string> inputs;
};

struct AssemblySpec {
    std::string name;
    std::vector<DeviceSpec> devices;
    std::vector<AppSpec> apps;
};

/// Derive the registry/requirements part of a spec from live objects.
/// Topic contracts (publishes/inputs) cannot be introspected from the
/// runtime types; add them to the returned spec before linting.
[[nodiscard]] AssemblySpec make_assembly_spec(
    std::string name, const ice::DeviceRegistry& registry,
    const std::vector<const ice::VmdApp*>& apps);

/// Run ICE1 over one assembly.
[[nodiscard]] std::vector<Finding> lint_assembly(const AssemblySpec& spec);

}  // namespace mcps::analysis
