/// \file registry.hpp
/// \brief Device registry for on-demand MCPS assembly.
///
/// The paper's interoperability vision (MD PnP / ICE, ASTM F2761) is
/// that a clinical system is *assembled at the bedside* from whatever
/// certified devices are present. The registry is the inventory the ICE
/// supervisor consults: devices register with their kind and capability
/// tags, and apps express requirements that are matched against it.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "devices/device.hpp"

namespace mcps::ice {

/// Registry entry describing one available device.
struct DeviceDescriptor {
    std::string name;
    devices::DeviceKind kind;
    std::vector<std::string> capabilities;
    devices::Device* device = nullptr;  ///< non-owning
};

/// A requirement one app slot must satisfy.
struct Requirement {
    devices::DeviceKind kind;
    std::vector<std::string> capabilities;  ///< all must be present
    std::string label;  ///< slot name for diagnostics, e.g. "oximeter"
};

/// True when \p d is of the requirement's kind and carries every
/// capability it lists: the one matching rule of the ICE layer.
[[nodiscard]] bool satisfies(const DeviceDescriptor& d, const Requirement& r);

/// The one slot assignment of the ICE layer, shared by
/// DeviceRegistry::resolve (and through it Supervisor::deploy) and the
/// ICE1 assembly lint: each requirement, in order, takes the first
/// candidate, in the caller's order, that satisfies it and whose name no
/// earlier slot took. A slot nothing fits gets nullptr and takes nothing.
/// Returns one entry per requirement.
[[nodiscard]] std::vector<const DeviceDescriptor*> assign_slots(
    const std::vector<const DeviceDescriptor*>& candidates,
    const std::vector<Requirement>& reqs);

class DeviceRegistry {
public:
    /// Register a device. \throws std::invalid_argument on duplicate name.
    void add(devices::Device& device);
    /// Remove by name; returns false if absent.
    bool remove(const std::string& name);

    [[nodiscard]] const DeviceDescriptor* find(const std::string& name) const;
    [[nodiscard]] std::vector<DeviceDescriptor> all() const;
    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

    /// assign_slots() over the registry in name order. On success,
    /// result.size() == reqs.size() (ordered as given). On failure
    /// returns an empty vector and sets \p missing to the label of the
    /// first unfilled requirement.
    [[nodiscard]] std::vector<DeviceDescriptor> resolve(
        const std::vector<Requirement>& reqs, std::string& missing) const;

private:
    std::map<std::string, DeviceDescriptor> entries_;
};

}  // namespace mcps::ice
