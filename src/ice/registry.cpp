#include "registry.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string_view>

namespace mcps::ice {

bool satisfies(const DeviceDescriptor& d, const Requirement& r) {
    if (d.kind != r.kind) return false;
    return std::all_of(r.capabilities.begin(), r.capabilities.end(),
                       [&](const std::string& cap) {
                           return std::find(d.capabilities.begin(),
                                            d.capabilities.end(),
                                            cap) != d.capabilities.end();
                       });
}

std::vector<const DeviceDescriptor*> assign_slots(
    const std::vector<const DeviceDescriptor*>& candidates,
    const std::vector<Requirement>& reqs) {
    std::vector<const DeviceDescriptor*> slots;
    slots.reserve(reqs.size());
    std::set<std::string_view> taken;
    for (const Requirement& r : reqs) {
        const auto it = std::find_if(
            candidates.begin(), candidates.end(),
            [&](const DeviceDescriptor* d) {
                return !taken.contains(d->name) && satisfies(*d, r);
            });
        if (it == candidates.end()) {
            slots.push_back(nullptr);
            continue;
        }
        taken.insert((*it)->name);
        slots.push_back(*it);
    }
    return slots;
}

void DeviceRegistry::add(devices::Device& device) {
    const auto& name = device.name();
    if (entries_.contains(name)) {
        throw std::invalid_argument("DeviceRegistry: duplicate device name '" +
                                    name + "'");
    }
    entries_.emplace(name, DeviceDescriptor{name, device.kind(),
                                            device.capabilities(), &device});
}

bool DeviceRegistry::remove(const std::string& name) {
    return entries_.erase(name) > 0;
}

const DeviceDescriptor* DeviceRegistry::find(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : &it->second;
}

std::vector<DeviceDescriptor> DeviceRegistry::all() const {
    std::vector<DeviceDescriptor> out;
    out.reserve(entries_.size());
    for (const auto& [_, d] : entries_) out.push_back(d);
    return out;
}

std::vector<DeviceDescriptor> DeviceRegistry::resolve(
    const std::vector<Requirement>& reqs, std::string& missing) const {
    std::vector<const DeviceDescriptor*> candidates;
    candidates.reserve(entries_.size());
    for (const auto& [_, d] : entries_) candidates.push_back(&d);
    const auto slots = assign_slots(candidates, reqs);

    std::vector<DeviceDescriptor> chosen;
    chosen.reserve(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (slots[i] == nullptr) {
            missing = reqs[i].label.empty()
                          ? std::string{devices::to_string(reqs[i].kind)}
                          : reqs[i].label;
            return {};
        }
        chosen.push_back(*slots[i]);
    }
    return chosen;
}

}  // namespace mcps::ice
