#include "event.hpp"

namespace mcps::obs {

std::string_view to_string(EventKind k) noexcept {
    switch (k) {
        case EventKind::kScenarioStart: return "scenario_start";
        case EventKind::kScenarioEnd: return "scenario_end";
        case EventKind::kBusPublish: return "bus_publish";
        case EventKind::kBusDeliver: return "bus_deliver";
        case EventKind::kBusDrop: return "bus_drop";
        case EventKind::kSupervisorState: return "supervisor_state";
        case EventKind::kPumpCommand: return "pump_command";
        case EventKind::kInterlockTrip: return "interlock_trip";
        case EventKind::kFaultInject: return "fault_inject";
        case EventKind::kShardStart: return "shard_start";
        case EventKind::kShardEnd: return "shard_end";
        case EventKind::kDeviceState: return "device_state";
        case EventKind::kAlarm: return "alarm";
        case EventKind::kClinician: return "clinician";
        case EventKind::kAppState: return "app_state";
    }
    return "unknown";
}

std::optional<EventKind> event_kind_from(std::string_view s) {
    for (auto k :
         {EventKind::kScenarioStart, EventKind::kScenarioEnd,
          EventKind::kBusPublish, EventKind::kBusDeliver, EventKind::kBusDrop,
          EventKind::kSupervisorState, EventKind::kPumpCommand,
          EventKind::kInterlockTrip, EventKind::kFaultInject,
          EventKind::kShardStart, EventKind::kShardEnd,
          EventKind::kDeviceState, EventKind::kAlarm, EventKind::kClinician,
          EventKind::kAppState}) {
        if (to_string(k) == s) return k;
    }
    return std::nullopt;
}

}  // namespace mcps::obs
