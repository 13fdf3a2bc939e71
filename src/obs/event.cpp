#include "event.hpp"

#include <array>
#include <cstddef>

namespace mcps::obs {

namespace {

/// Wire names, indexed by EventKind.
constexpr std::array<std::string_view, 15> kNames = {
    "scenario_start", "scenario_end", "bus_publish",  "bus_deliver",
    "bus_drop",       "supervisor_state",             "pump_command",
    "interlock_trip", "fault_inject", "shard_start",  "shard_end",
    "device_state",   "alarm",        "clinician",    "app_state",
};
static_assert(kNames.size() ==
              static_cast<std::size_t>(EventKind::kAppState) + 1);

constexpr std::size_t kSlots = 32;

/// A name's slot in kKindBySlot, from its length and its first and last
/// bytes: every wire name gets a slot of its own (checked below), so a
/// lookup is one table load and one string compare.
constexpr std::size_t name_slot(std::string_view s) noexcept {
    return (s.size() + 6 * static_cast<unsigned char>(s.front()) +
            3 * static_cast<unsigned char>(s.back())) %
           kSlots;
}

/// Kind index + 1 by slot; 0 for a slot no name hashes to.
constexpr std::array<std::uint8_t, kSlots> kKindBySlot = [] {
    std::array<std::uint8_t, kSlots> t{};
    for (std::size_t k = 0; k < kNames.size(); ++k) {
        t[name_slot(kNames[k])] = static_cast<std::uint8_t>(k + 1);
    }
    return t;
}();

constexpr bool names_have_own_slots() {
    for (std::size_t k = 0; k < kNames.size(); ++k) {
        if (kKindBySlot[name_slot(kNames[k])] != k + 1) return false;
    }
    return true;
}
static_assert(names_have_own_slots(),
              "two event kind names share a slot: change name_slot");

}  // namespace

std::string_view to_string(EventKind k) noexcept {
    const auto i = static_cast<std::size_t>(k);
    return i < kNames.size() ? kNames[i] : "unknown";
}

std::optional<EventKind> event_kind_from(std::string_view s) {
    if (s.empty()) return std::nullopt;
    const std::uint8_t k = kKindBySlot[name_slot(s)];
    if (k == 0 || kNames[k - 1] != s) return std::nullopt;
    return static_cast<EventKind>(k - 1);
}

}  // namespace mcps::obs
