#include "ice_lint.hpp"

#include <algorithm>
#include <set>

#include "net/message.hpp"

namespace mcps::analysis {

namespace {

std::string describe(const ice::Requirement& r) {
    std::string out = "slot '" + r.label + "' (kind " +
                      std::string{devices::to_string(r.kind)};
    if (!r.capabilities.empty()) {
        out += ", caps";
        for (const auto& c : r.capabilities) out += " '" + c + "'";
    }
    out += ")";
    return out;
}

}  // namespace

AssemblySpec make_assembly_spec(std::string name,
                                const ice::DeviceRegistry& registry,
                                const std::vector<const ice::VmdApp*>& apps) {
    AssemblySpec spec;
    spec.name = std::move(name);
    for (const auto& d : registry.all()) {
        spec.devices.push_back({d, {}});
    }
    for (const ice::VmdApp* app : apps) {
        spec.apps.push_back({app->name(), app->requirements(), {}});
    }
    return spec;
}

std::vector<Finding> lint_assembly(const AssemblySpec& spec) {
    std::vector<Finding> out;

    // Duplicate device names would shadow each other in a registry.
    std::set<std::string> seen;
    std::vector<const ice::DeviceDescriptor*> candidates;
    candidates.reserve(spec.devices.size());
    for (const DeviceSpec& d : spec.devices) {
        const std::string& name = d.descriptor.name;
        if (!seen.insert(name).second) {
            out.push_back({RuleId::kICE1, FindingSeverity::kError,
                           spec.name + "/device '" + name + "'", "", 0,
                           "duplicate device name in assembly"});
        }
        candidates.push_back(&d.descriptor);
    }

    for (const AppSpec& app : spec.apps) {
        // Requirement slots: each app is assigned against the whole
        // inventory, in spec order, exactly as resolve() would.
        const auto slots = ice::assign_slots(candidates, app.requirements);
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (slots[i] != nullptr) continue;
            const ice::Requirement& req = app.requirements[i];
            const bool any_match = std::any_of(
                candidates.begin(), candidates.end(),
                [&req](const ice::DeviceDescriptor* d) {
                    return ice::satisfies(*d, req);
                });
            out.push_back({RuleId::kICE1, FindingSeverity::kError,
                           spec.name + "/" + app.name, "", 0,
                           describe(req) +
                               (any_match
                                    ? " is only satisfiable by a device "
                                      "already consumed by an earlier slot"
                                    : " is satisfied by no registered "
                                      "device")});
        }

        // Data-plane inputs: every consumed pattern must intersect some
        // device's published pattern. Patterns are exact topics or
        // prefix/*; intersection is checked in both directions so
        // "vitals/bed1/*" (input) matches "vitals/bed1/spo2" (publish).
        for (const std::string& input : app.inputs) {
            bool produced = false;
            for (const DeviceSpec& d : spec.devices) {
                for (const std::string& pub : d.publishes) {
                    if (net::topic_matches(input, pub) ||
                        net::topic_matches(pub, input)) {
                        produced = true;
                        break;
                    }
                }
                if (produced) break;
            }
            if (!produced) {
                out.push_back({RuleId::kICE1, FindingSeverity::kError,
                               spec.name + "/" + app.name, "", 0,
                               "input topic '" + input +
                                   "' is produced by no device in the "
                                   "assembly"});
            }
        }
    }
    return out;
}

}  // namespace mcps::analysis
