/// \file test_kernel_stress.cpp
/// \brief Churn stress for the arena-backed kernel: a million events
/// with cancels and re-arms, plus arena-reset reuse.
///
/// What this pins down:
///  - cancel() is absolute: an event whose cancel() returned true never
///    fires, even under heavy slot recycling (a recycled slot must not
///    resurrect a stale handle — that's the generation counter's job);
///  - re-arming (cancel + schedule a replacement) preserves the global
///    (when, priority, seq) order;
///  - running the same workload on a freshly reset arena yields the
///    byte-identical dispatch order while recycling warm slots, with
///    zero heap allocations (no new chunks, no heap-held callables).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event_arena.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace {

using namespace mcps::sim;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

constexpr std::size_t kChurnEvents = 1000000;

/// One full churn run against \p arena: schedules a million events,
/// cancels a third, re-arms a third of the cancelled at a new deadline,
/// and returns an order-sensitive hash of the dispatch sequence.
std::uint64_t churn_run(EventArena* arena, std::uint64_t* fired_count) {
    Simulation s{77, arena};
    auto rng = s.rng("stress.churn");
    std::uint64_t hash = 0x6d637073ULL;
    std::uint64_t fired = 0;

    std::vector<EventHandle> handles;
    std::vector<bool> cancelled(kChurnEvents, false);
    std::vector<bool> fired_flags(kChurnEvents, false);
    handles.reserve(kChurnEvents);

    for (std::uint32_t i = 0; i < kChurnEvents; ++i) {
        const std::int64_t delay = rng.uniform_int(0, 10000000);
        handles.push_back(s.schedule_after(
            SimDuration::micros(delay), [i, &hash, &fired, &fired_flags] {
                hash = mix(hash, i);
                fired_flags[i] = true;
                ++fired;
            }));
        const std::int64_t roll = rng.uniform_int(0, 5);
        if (roll == 0) {
            // Plain cancel.
            cancelled[i] = handles.back().cancel();
        } else if (roll == 1) {
            // Re-arm: cancel, then schedule a replacement at a fresh
            // deadline (the replacement hashes with a disjoint id).
            cancelled[i] = handles.back().cancel();
            const std::int64_t redelay = rng.uniform_int(0, 10000000);
            s.schedule_after(SimDuration::micros(redelay),
                             [i, &hash, &fired] {
                                 hash = mix(hash, 0x80000000u + i);
                                 ++fired;
                             });
        }
    }
    s.run_all();

    // An event whose cancel() returned true must never have fired.
    for (std::uint32_t i = 0; i < kChurnEvents; ++i) {
        if (cancelled[i]) {
            EXPECT_FALSE(fired_flags[i]) << "event " << i
                                         << " fired after cancel() == true";
        } else {
            EXPECT_TRUE(fired_flags[i]) << "uncancelled event " << i
                                        << " never fired";
        }
    }
    if (fired_count != nullptr) *fired_count = fired;
    return hash;
}

TEST(KernelStress, MillionEventChurnWithCancelsAndRearms) {
    std::uint64_t fired = 0;
    const std::uint64_t h = churn_run(nullptr, &fired);
    EXPECT_NE(h, 0u);
    EXPECT_GT(fired, kChurnEvents / 2);
    EXPECT_LT(fired, kChurnEvents + kChurnEvents / 2);
}

TEST(KernelStress, ArenaResetYieldsIdenticalDispatchOrder) {
    EventArena arena;
    std::uint64_t fired1 = 0;
    std::uint64_t fired2 = 0;
    const std::uint64_t h1 = churn_run(&arena, &fired1);
    const ArenaStats after_first = arena.stats();

    arena.reset();
    const std::uint64_t h2 = churn_run(&arena, &fired2);

    EXPECT_EQ(h1, h2) << "dispatch order changed across an arena reset";
    EXPECT_EQ(fired1, fired2);
    // The second run must have been served from recycled slots, and in
    // steady state the kernel touches the heap not at all: no fresh
    // chunks and no callable spilled out of inline storage.
    EXPECT_EQ(arena.stats().chunk_allocs, after_first.chunk_allocs)
        << "warm rerun allocated fresh chunks";
    EXPECT_EQ(arena.stats().heap_allocs(), after_first.heap_allocs())
        << "warm rerun allocated on the heap";
    EXPECT_GT(arena.stats().nodes_recycled, 0u);
    EXPECT_GE(arena.stats().resets, 1u);
}

TEST(KernelStress, HandlesAreInertAfterArenaReset) {
    EventArena arena;
    std::vector<EventHandle> handles;
    {
        Simulation s{3, &arena};
        for (int i = 0; i < 100; ++i) {
            handles.push_back(
                s.schedule_after(SimDuration::micros(1000 + i), [] {}));
        }
        // Simulation destroyed with events still pending.
    }
    arena.reset();
    for (auto& h : handles) {
        EXPECT_TRUE(h.valid());     // still refers to a slab
        EXPECT_FALSE(h.pending());  // ...but the event is gone
        EXPECT_FALSE(h.cancel());   // and cancel is a harmless no-op
    }
}

TEST(KernelStress, StaleHandleDoesNotCancelRecycledSlot) {
    // A handle whose slot was recycled must not affect the NEW tenant of
    // that slot (generation mismatch), no matter how many reuse cycles
    // the slot went through.
    Simulation s{11};
    EventHandle stale = s.schedule_after(SimDuration::micros(1), [] {});
    s.run_for(SimDuration::micros(2));  // fires; slot recycled
    EXPECT_FALSE(stale.pending());

    bool second_fired = false;
    // The recycled slot is acquired by the next schedule.
    EventHandle fresh = s.schedule_after(SimDuration::micros(1),
                                         [&second_fired] { second_fired = true; });
    EXPECT_FALSE(stale.cancel()) << "stale handle cancelled a recycled slot";
    s.run_for(SimDuration::micros(2));
    EXPECT_TRUE(second_fired);
    EXPECT_FALSE(fresh.pending());
}

TEST(KernelStress, CancelledPeriodicStopsRearming) {
    Simulation s{13};
    int fires = 0;
    EventHandle h = s.schedule_periodic(SimDuration::micros(10),
                                        [&fires, &s, &h] {
                                            ++fires;
                                            if (fires == 3) {
                                                EXPECT_TRUE(h.cancel());
                                            }
                                        });
    s.run_for(SimDuration::micros(1000));
    EXPECT_EQ(fires, 3);
    EXPECT_FALSE(h.pending());
}

}  // namespace
