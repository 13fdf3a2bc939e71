/// \file simulation.hpp
/// \brief Discrete-event simulation kernel.
///
/// A Simulation owns a simulated clock and an event queue. Components
/// schedule callbacks at absolute instants or after delays; the kernel
/// dispatches them in (time, priority, insertion-order) order, which makes
/// runs fully deterministic. Handles returned by schedule() support
/// cancellation (e.g. a watchdog disarmed by a heartbeat).
///
/// The kernel is deliberately single-threaded: MCPS scenario runs must be
/// reproducible bit-for-bit, and the simulated entities (devices, patient,
/// network) are logically concurrent but execute under the event queue's
/// total order.
///
/// Hot-path architecture (see DESIGN.md "Sim-kernel speed"):
///  - pending events live in a CalendarQueue (amortized O(1)
///    enqueue/dequeue vs the former binary heap's O(log n));
///  - event nodes and their callbacks are arena-allocated (EventArena):
///    steady-state scheduling performs zero heap allocations, and
///    periodic events re-arm in place without any allocation at all;
///  - an external EventArena can be supplied to keep slabs warm across
///    sequential runs (reset() between runs; see ArenaStats).
/// None of this changes dispatch order: the calendar queue pops in
/// exactly the (when, priority, seq) order the heap produced, which is
/// what keeps golden traces and ward fingerprints byte-identical.

#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "calendar_queue.hpp"
#include "event_arena.hpp"
#include "rng.hpp"
#include "time.hpp"

namespace mcps::sim {

/// Error thrown on kernel contract violations (scheduling in the past,
/// running a finished simulation, ...).
class SimulationError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Cancellation handle for a scheduled event. Cheap to copy; cancelling an
/// already-fired or already-cancelled event is a harmless no-op.
///
/// Handles validate a per-slot generation counter against the shared
/// event slab, so they stay safe (and report "not pending") after the
/// event fires, after an arena reset, and even after the Simulation is
/// destroyed.
class EventHandle {
public:
    EventHandle() = default;

    /// Prevents the event from firing. Returns true if the event was still
    /// pending (i.e. this call actually cancelled something).
    bool cancel() noexcept;

    /// True while the event has neither fired nor been cancelled.
    [[nodiscard]] bool pending() const noexcept;

    /// True if this handle refers to some event (fired or not).
    [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(slab_); }

private:
    friend class Simulation;
    EventHandle(SlabRef slab, std::uint32_t idx, std::uint32_t gen)
        : slab_{std::move(slab)}, idx_{idx}, gen_{gen} {}

    /// nullptr when the handle is empty or its slot was recycled.
    [[nodiscard]] EventNode* live_node() const noexcept {
        if (!slab_) return nullptr;
        EventNode* n = &slab_->node(idx_);
        return n->gen == gen_ ? n : nullptr;
    }

    SlabRef slab_;
    std::uint32_t idx_ = 0;
    std::uint32_t gen_ = 0;
};

/// The discrete-event kernel. Non-copyable; one per scenario run.
class Simulation {
public:
    using Callback = EventCallback;

    /// \param master_seed seed from which all named RNG streams derive.
    /// \param arena optional external event arena (kept warm across
    ///   sequential runs); defaults to a private arena. Must outlive the
    ///   Simulation and must not be shared by two live Simulations.
    explicit Simulation(std::uint64_t master_seed = 1,
                        EventArena* arena = nullptr);
    ~Simulation();

    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    /// Current simulated instant.
    [[nodiscard]] SimTime now() const noexcept { return now_; }

    /// Master seed this run was constructed with.
    [[nodiscard]] std::uint64_t master_seed() const noexcept { return master_seed_; }

    /// A named deterministic RNG stream derived from the master seed.
    /// Calling twice with the same name returns streams with identical
    /// output, so components should create their stream once and keep it.
    [[nodiscard]] RngStream rng(std::string_view stream_name) const {
        return RngStream{master_seed_, stream_name};
    }

    /// Schedule \p cb at absolute time \p when (>= now()).
    /// \throws SimulationError if \p when is in the past.
    EventHandle schedule_at(SimTime when, Callback cb,
                            EventPriority prio = EventPriority::kDefault);

    /// Schedule \p cb after \p delay (>= 0) from now.
    EventHandle schedule_after(SimDuration delay, Callback cb,
                               EventPriority prio = EventPriority::kDefault);

    /// Schedule \p cb every \p period, first firing at now() + period.
    /// Cancel via the returned handle (cancels all future firings).
    /// Periodic events re-arm in place: the chain performs no further
    /// allocations after this call.
    EventHandle schedule_periodic(SimDuration period, Callback cb,
                                  EventPriority prio = EventPriority::kDefault);

    /// Run until the event queue is empty or \p until is reached (whichever
    /// first). On return now() == min(until, time-of-last-event). Events at
    /// exactly \p until are executed.
    void run_until(SimTime until);

    /// Convenience: run for a span from the current instant.
    void run_for(SimDuration span) { run_until(now_ + span); }

    /// Run until the queue drains completely (use with care: periodic
    /// processes never drain).
    void run_all();

    /// Request the kernel to stop after the current event returns; the
    /// clock stays at the stopping event's timestamp.
    void stop() noexcept { stop_requested_ = true; }

    /// Number of events dispatched so far (for benchmarks/diagnostics).
    [[nodiscard]] std::uint64_t events_dispatched() const noexcept {
        return events_dispatched_;
    }

    /// Number of events currently pending (counting cancelled-but-queued).
    [[nodiscard]] std::size_t events_pending() const noexcept {
        return queue_.size();
    }

    /// Cancelled-but-still-queued events (tombstones). The drain loop
    /// sweeps these out in one pass once they reach half the pending set
    /// (and at least kCompactMinTombstones), instead of popping them one
    /// by one.
    [[nodiscard]] std::uint64_t tombstones_pending() const noexcept {
        return arena_->slab()->cancelled_queued();
    }
    /// Compaction sweeps performed by this run's queue.
    [[nodiscard]] std::uint64_t queue_compactions() const noexcept {
        return queue_.compactions();
    }
    /// Tombstones removed by those sweeps (never dispatched as pops).
    [[nodiscard]] std::uint64_t tombstones_compacted() const noexcept {
        return queue_.tombstones_compacted();
    }
    /// Bucket-width re-derivations by this run's queue (a lap over the
    /// buckets that found no event).
    [[nodiscard]] std::uint64_t queue_rewidths() const noexcept {
        return queue_.rewidths();
    }

    /// Minimum tombstone population before the drain loop considers a
    /// compaction sweep (amortizes the O(population) pass).
    static constexpr std::uint64_t kCompactMinTombstones = 1024;

    /// Allocation counters of the backing arena.
    [[nodiscard]] const ArenaStats& arena_stats() const noexcept {
        return arena_->stats();
    }

private:
    EventHandle push(SimTime when, EventPriority prio, Callback cb,
                     SimDuration period);
    void dispatch(std::uint32_t idx);
    void drain(SimTime until);

    SimTime now_{};
    std::uint64_t master_seed_;
    std::uint64_t next_seq_{0};
    std::uint64_t events_dispatched_{0};
    bool running_{false};
    bool stop_requested_{false};
    std::unique_ptr<EventArena> owned_arena_;  ///< null when external
    EventArena* arena_;
    CalendarQueue queue_;
};

}  // namespace mcps::sim
