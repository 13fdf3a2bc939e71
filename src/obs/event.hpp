/// \file event.hpp
/// \brief Typed, sim-time-stamped observability events.
///
/// An Event is one semantic fact of a run: it carries a closed kind
/// taxonomy, the simulated instant, the emitting component, a
/// kind-specific detail string (both interned by the owning EventLog)
/// and one numeric value. The taxonomy deliberately mirrors the layers
/// of the system — bus traffic, supervisor decisions, pump commands,
/// interlock trips, device states, alarms, clinician actions, app
/// phases, fault injections, ward sharding — so a single log
/// reconstructs "what the closed-loop system did and when" across every
/// layer (the forensic accountability the MCPS vision requires). Each
/// fact is recorded once, as an event; there is no second record.

#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <type_traits>

#include "sim/time.hpp"

namespace mcps::obs {

/// The closed event taxonomy. Keep the name table in event.cpp in sync;
/// the JSONL schema and the golden traces depend on these names.
enum class EventKind : std::uint8_t {
    kScenarioStart = 0,  ///< a scenario kernel begins (value: seed)
    kScenarioEnd,        ///< a scenario kernel finished (value: events run)
    kBusPublish,         ///< message accepted by the bus (value: seq)
    kBusDeliver,         ///< message handed to a subscriber (value: seq)
    kBusDrop,            ///< delivery dropped by the link model (value: seq)
    kSupervisorState,    ///< deploy/undeploy/device-lost/device-recovered
    kPumpCommand,        ///< remote pump command handled (value: cmd seq)
    kInterlockTrip,      ///< interlock stop/resume decision
    kFaultInject,        ///< testkit fault window armed (value: magnitude)
    kShardStart,         ///< ward shard began (value: shard index)
    kShardEnd,           ///< ward shard finished (value: shard index)
    kDeviceState,        ///< device state, mode, button, image or crash
    kAlarm,              ///< pump, monitor, smart or predictive alarm
    kClinician,          ///< nurse responder action
    kAppState,           ///< ICE app phase or device-loss handling
};

/// Stable wire name, e.g. "bus_publish".
[[nodiscard]] std::string_view to_string(EventKind k) noexcept;
/// Inverse of to_string; nullopt for unknown names.
[[nodiscard]] std::optional<EventKind> event_kind_from(std::string_view s);

/// Bus traffic (publish, deliver, drop): the kinds a log holds only when
/// the bus is attached to it. `mcps trace --no-bus` drops them, and the
/// run fingerprint skips them so it is the same with events on or off.
[[nodiscard]] constexpr bool is_bus_kind(EventKind k) noexcept {
    return k == EventKind::kBusPublish || k == EventKind::kBusDeliver ||
           k == EventKind::kBusDrop;
}

/// Index of a string in the owning EventLog's symbol table.
using SymbolId = std::uint32_t;

/// One structured event: a fixed-size POD. Source and detail are ids
/// into the owning log's symbol table (EventLog::symbol resolves them);
/// EventLog's == compares logs by their resolved text. Every
/// field must be a pure function of the scenario's (seed, config) — no
/// wall-clock, no addresses — so that logs are bit-identical across runs
/// and job counts.
struct Event {
    EventKind kind = EventKind::kScenarioStart;
    mcps::sim::SimTime time;
    SymbolId source = 0;  ///< endpoint/device/app name ("ward" for shards)
    SymbolId detail = 0;  ///< kind-specific text (topic, state, fault kind)
    double value = 0.0;   ///< kind-specific number (seq, index, magnitude)
};

static_assert(std::is_trivially_copyable_v<Event>);
static_assert(sizeof(Event) <= 32);

}  // namespace mcps::obs
