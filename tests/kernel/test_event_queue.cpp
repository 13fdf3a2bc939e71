/// \file test_event_queue.cpp
/// \brief Differential tests of the calendar queue against a reference
/// std::priority_queue model.
///
/// The kernel's determinism contract is that dispatch order is EXACTLY
/// ascending (when, priority, sequence) — the total order the former
/// binary-heap scheduler produced. These tests drive the CalendarQueue
/// (and the full Simulation) with randomized workloads and assert the
/// pop order matches the reference comparator element-for-element, so
/// any bucket-geometry bug that perturbs ordering fails loudly here
/// instead of surfacing as a golden-trace diff.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "sim/event_arena.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace {

using namespace mcps::sim;

struct RefKey {
    std::int64_t when;
    std::uint64_t seq;
    std::int8_t prio;
};

/// Exact mirror of the kernel's dispatch order: ascending
/// (when, prio, seq). priority_queue pops the "largest", so the
/// comparator is the reverse.
struct RefAfter {
    bool operator()(const RefKey& a, const RefKey& b) const noexcept {
        if (a.when != b.when) return a.when > b.when;
        if (a.prio != b.prio) return a.prio > b.prio;
        return a.seq > b.seq;
    }
};

using RefQueue = std::priority_queue<RefKey, std::vector<RefKey>, RefAfter>;

/// Pushes a node with the given key into both queues.
class DifferentialHarness {
public:
    /// Returns the pushed entry's sequence number.
    std::uint64_t push(std::int64_t when, std::int8_t prio) {
        const std::uint64_t seq = next_seq_++;
        const std::uint32_t idx = arena_.acquire();
        EventNode& n = arena_.node(idx);
        n.when = SimTime::at(SimDuration::micros(when));
        n.seq = seq;
        n.prio = static_cast<EventPriority>(prio);
        queue_.push(idx);
        ref_.push(RefKey{when, seq, prio});
        return seq;
    }

    /// Pops one entry from both queues and asserts the keys agree.
    /// Returns the popped key; nullopt when both are empty.
    std::optional<RefKey> pop_and_compare() {
        const auto e = queue_.pop_if_at_most(SimTime::never().ticks());
        if (!e) {
            EXPECT_TRUE(ref_.empty());
            return std::nullopt;
        }
        EXPECT_FALSE(ref_.empty());
        const RefKey expect = ref_.top();
        ref_.pop();
        EXPECT_EQ(e->when, expect.when);
        EXPECT_EQ(e->seq, expect.seq) << "FIFO tie-break diverged at when="
                                      << expect.when;
        EXPECT_EQ(e->prio, expect.prio);
        arena_.release(e->idx);
        return expect;
    }

    [[nodiscard]] CalendarQueue& queue() noexcept { return queue_; }

private:
    EventArena arena_;
    CalendarQueue queue_{arena_};
    RefQueue ref_;
    std::uint64_t next_seq_ = 0;
};

TEST(EventQueueDifferential, RandomizedPushThenDrain) {
    DifferentialHarness h;
    RngStream rng{2024, "queue.random"};
    for (int i = 0; i < 20000; ++i) {
        // Coarse timestamps force plenty of exact collisions.
        h.push(rng.uniform_int(0, 5000),
               static_cast<std::int8_t>(rng.uniform_int(-1, 1)));
    }
    int popped = 0;
    while (h.pop_and_compare()) ++popped;
    EXPECT_EQ(popped, 20000);
}

TEST(EventQueueDifferential, InterleavedPushPop) {
    DifferentialHarness h;
    RngStream rng{7, "queue.interleave"};
    int pushed = 0;
    int popped = 0;
    for (int round = 0; round < 4000; ++round) {
        const int burst = static_cast<int>(rng.uniform_int(1, 8));
        for (int i = 0; i < burst; ++i) {
            h.push(rng.uniform_int(0, 100000),
                   static_cast<std::int8_t>(rng.uniform_int(-1, 1)));
            ++pushed;
        }
        // Pop roughly half of what is outstanding, so the queue cursor
        // repeatedly rewinds when later pushes land in earlier years.
        int to_pop = (pushed - popped) / 2;
        while (to_pop-- > 0 && h.pop_and_compare()) ++popped;
    }
    while (h.pop_and_compare()) ++popped;
    EXPECT_EQ(popped, pushed);
}

TEST(EventQueueDifferential, AllSameInstantPopsInFifoOrder) {
    EventArena arena;
    CalendarQueue q{arena};
    for (std::uint64_t seq = 0; seq < 1000; ++seq) {
        const std::uint32_t idx = arena.acquire();
        EventNode& n = arena.node(idx);
        n.when = SimTime::at(SimDuration::micros(42));
        n.seq = seq;
        n.prio = EventPriority::kDefault;
        q.push(idx);
    }
    for (std::uint64_t seq = 0; seq < 1000; ++seq) {
        const auto e = q.pop_if_at_most(SimTime::never().ticks());
        ASSERT_TRUE(e.has_value());
        EXPECT_EQ(e->seq, seq);  // exact insertion order
        arena.release(e->idx);
    }
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueDifferential, PriorityBeatsFifoAtSameInstant) {
    DifferentialHarness h;
    // Insertion order deliberately scrambles priorities at one instant.
    h.push(10, 0);
    h.push(10, 1);
    h.push(10, -1);
    h.push(10, 0);
    h.push(10, -1);
    while (h.pop_and_compare()) {
    }
}

TEST(EventQueueDifferential, PopRespectsLimit) {
    EventArena arena;
    CalendarQueue q{arena};
    for (std::int64_t when : {100, 200, 300}) {
        const std::uint32_t idx = arena.acquire();
        EventNode& n = arena.node(idx);
        n.when = SimTime::at(SimDuration::micros(when));
        n.seq = static_cast<std::uint64_t>(when);
        n.prio = EventPriority::kDefault;
        q.push(idx);
    }
    EXPECT_FALSE(q.pop_if_at_most(99).has_value());
    EXPECT_EQ(q.size(), 3u);  // a refused pop leaves the queue untouched
    const auto e1 = q.pop_if_at_most(100);
    ASSERT_TRUE(e1.has_value());
    EXPECT_EQ(e1->when, 100);
    EXPECT_FALSE(q.pop_if_at_most(150).has_value());
    EXPECT_EQ(q.size(), 2u);
    const auto e2 = q.pop_if_at_most(SimTime::never().ticks());
    ASSERT_TRUE(e2.has_value());
    EXPECT_EQ(e2->when, 200);
}

TEST(EventQueueDifferential, BucketGeometryGrowsWithPopulation) {
    EventArena arena;
    CalendarQueue q{arena};
    const std::size_t initial = q.bucket_count();
    for (std::int64_t i = 0; i < 10000; ++i) {
        const std::uint32_t idx = arena.acquire();
        EventNode& n = arena.node(idx);
        n.when = SimTime::at(SimDuration::micros(i));
        n.seq = static_cast<std::uint64_t>(i);
        n.prio = EventPriority::kDefault;
        q.push(idx);
    }
    EXPECT_GT(q.bucket_count(), initial);
    EXPECT_EQ(q.size(), 10000u);
}

/// The bedside shape: a handful of periodic sources whose population
/// never reaches the grow threshold, so the queue keeps its start-up
/// bucket count and must re-derive the width from the live traffic.
/// Periods span 0.25 s to 60 s; one event sits far in the future; one
/// event lands hours before the cursor's bucket-year (a rewind).
TEST(EventQueueDifferential, SparsePeriodicMatchesReference) {
    constexpr std::int64_t kSecond = 1'000'000;
    constexpr std::int64_t kHour = 3600 * kSecond;
    const std::int64_t periods[] = {kSecond / 4, kSecond / 2, kSecond,
                                    2 * kSecond, 5 * kSecond, 17 * kSecond,
                                    60 * kSecond};
    DifferentialHarness h;
    std::map<std::uint64_t, std::int64_t> period_of;  // seq -> period
    for (const std::int64_t p : periods) {
        period_of[h.push(p, 0)] = p;
    }
    h.push(10 * kHour, 1);  // far future
    ASSERT_LT(h.queue().size(), 32u);  // below the grow threshold

    std::int64_t now = 0;
    bool rewound = false;
    while (now < 12 * kHour) {
        const auto e = h.pop_and_compare();
        ASSERT_TRUE(e.has_value());
        now = e->when;
        const auto it = period_of.find(e->seq);
        if (it == period_of.end()) continue;  // a one-shot
        const std::int64_t period = it->second;
        period_of.erase(it);
        period_of[h.push(now + period, 0)] = period;

        if (!rewound && now > 5 * kHour) {
            h.push(now / 2, -1);  // must pop next, from an earlier year
            rewound = true;
        }
    }
    EXPECT_TRUE(rewound);
    EXPECT_LT(h.queue().size(), 32u);
    EXPECT_EQ(h.queue().bucket_count(), 16u);  // never grew
    EXPECT_GE(h.queue().rewidths(), 1u);
    while (h.pop_and_compare()) {
    }
}

/// The re-width rule cannot thrash: on a 40 sim-hour sparse run it fires
/// O(log horizon) times, not once per pop. Covers the bedside mix
/// (several periods plus one far-future event), a lone periodic source
/// and sources in phase; in the last two every pending event sits at one
/// instant whenever a lap fails, so the live span alone would size a
/// 1-tick width that fails the very next lap.
TEST(EventQueueBoundedWork, SparseRunRewidthsLogarithmically) {
    const SimDuration horizon = SimDuration::hours(40);
    // log2 of the horizon in ticks (~37): the bound "O(log horizon)".
    std::uint64_t log_horizon = 0;
    while ((std::int64_t{1} << log_horizon) < horizon.ticks()) ++log_horizon;

    struct Mix {
        const char* name;
        std::vector<SimDuration> periods;
        bool far_event;
    };
    const std::vector<Mix> mixes = {
        {"bedside",
         {SimDuration::millis(250), SimDuration::millis(500),
          SimDuration::seconds(1), SimDuration::seconds(2),
          SimDuration::seconds(5), SimDuration::seconds(12),
          SimDuration::seconds(60)},
         true},
        {"lone", {SimDuration::seconds(60)}, false},
        {"in-phase", std::vector<SimDuration>(8, SimDuration::seconds(5)),
         false},
    };
    for (const Mix& mix : mixes) {
        Simulation s{3};
        for (const SimDuration p : mix.periods) s.schedule_periodic(p, [] {});
        if (mix.far_event) {
            s.schedule_at(SimTime::origin() + SimDuration::hours(39), [] {});
        }
        s.run_for(horizon);
        EXPECT_LT(s.events_pending(), 32u) << mix.name;
        EXPECT_GE(s.queue_rewidths(), 1u) << mix.name;
        EXPECT_LE(s.queue_rewidths(), log_horizon) << mix.name;
    }
}

/// Reference model of the full Simulation seq-assignment contract:
/// every push (including a periodic re-arm at dispatch time) takes the
/// next global sequence number, and callbacks run before their event's
/// re-arm is assigned its new seq.
TEST(SimulationDifferential, RandomOneShotsMatchSortedOrder) {
    Simulation s{99};
    auto rng = s.rng("test.diff");
    struct Scheduled {
        std::int64_t when;
        std::int8_t prio;
        std::uint64_t seq;
        int id;
    };
    std::vector<Scheduled> model;
    std::vector<int> dispatched;
    for (int i = 0; i < 5000; ++i) {
        const std::int64_t delay = rng.uniform_int(0, 2000);
        const auto prio = static_cast<std::int8_t>(rng.uniform_int(-1, 1));
        model.push_back(Scheduled{delay, prio, static_cast<std::uint64_t>(i), i});
        s.schedule_after(SimDuration::micros(delay),
                         [&dispatched, i] { dispatched.push_back(i); },
                         static_cast<EventPriority>(prio));
    }
    s.run_all();

    std::sort(model.begin(), model.end(),
              [](const Scheduled& a, const Scheduled& b) {
                  if (a.when != b.when) return a.when < b.when;
                  if (a.prio != b.prio) return a.prio < b.prio;
                  return a.seq < b.seq;
              });
    ASSERT_EQ(dispatched.size(), model.size());
    for (std::size_t i = 0; i < model.size(); ++i) {
        EXPECT_EQ(dispatched[i], model[i].id) << "divergence at position " << i;
    }
}

TEST(SimulationDifferential, PeriodicRearmTakesFreshSeqAfterCallback) {
    // One periodic process at t=10,20,30 and one-shots scheduled BY its
    // callback at the same instants it re-arms to. The re-arm happens
    // after the callback returns, so the re-armed event carries a LARGER
    // seq than anything the callback scheduled — the one-shot runs first
    // at the next instant. This pins the exact heap-era contract.
    Simulation s{5};
    std::vector<std::string> order;
    s.schedule_periodic(SimDuration::micros(10), [&s, &order] {
        order.push_back("periodic@" + std::to_string(s.now().ticks()));
        s.schedule_after(SimDuration::micros(10), [&order, &s] {
            order.push_back("oneshot@" + std::to_string(s.now().ticks()));
        });
    });
    s.run_for(SimDuration::micros(45));
    ASSERT_GE(order.size(), 4u);
    EXPECT_EQ(order[0], "periodic@10");
    EXPECT_EQ(order[1], "oneshot@20");  // scheduled first => smaller seq
    EXPECT_EQ(order[2], "periodic@20");
    EXPECT_EQ(order[3], "oneshot@30");
}

}  // namespace
