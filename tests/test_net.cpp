/// \file test_net.cpp
/// \brief Unit tests for messages, channels and the pub/sub bus.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/net.hpp"
#include "obs/event_log.hpp"
#include "sim/hash.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace mcps;
using namespace mcps::sim::literals;
using sim::SimDuration;
using sim::SimTime;

TEST(TopicMatch, ExactAndWildcard) {
    EXPECT_TRUE(net::topic_matches("a/b", "a/b"));
    EXPECT_FALSE(net::topic_matches("a/b", "a/c"));
    EXPECT_TRUE(net::topic_matches("vitals/*", "vitals/bed1/spo2"));
    EXPECT_TRUE(net::topic_matches("vitals/*", "vitals/x"));
    EXPECT_FALSE(net::topic_matches("vitals/*", "vitals/"));
    EXPECT_FALSE(net::topic_matches("vitals/*", "vitals"));
    EXPECT_FALSE(net::topic_matches("vitals/*", "alarms/bed1"));
    EXPECT_TRUE(net::topic_matches("*", "anything/at/all"));
}

TEST(Message, PayloadKindAndAccessor) {
    net::Message m;
    m.payload = net::VitalSignPayload{"spo2", 97.0, true};
    EXPECT_EQ(net::payload_kind(m), "vital");
    ASSERT_NE(net::payload_as<net::VitalSignPayload>(m), nullptr);
    EXPECT_EQ(net::payload_as<net::CommandPayload>(m), nullptr);
    m.payload = net::CommandPayload{"stop_infusion", {}, 7};
    EXPECT_EQ(net::payload_kind(m), "command");
    m.payload = net::AckPayload{};
    EXPECT_EQ(net::payload_kind(m), "ack");
    m.payload = net::HeartbeatPayload{};
    EXPECT_EQ(net::payload_kind(m), "heartbeat");
    m.payload = net::StatusPayload{};
    EXPECT_EQ(net::payload_kind(m), "status");
}

TEST(ChannelParameters, Validation) {
    net::ChannelParameters p;
    EXPECT_NO_THROW(p.validate());
    p.loss_probability = 1.5;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = {};
    p.base_latency = -(1_ms);
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = {};
    p.duplicate_probability = -0.1;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Channel, IdealChannelDeliversInstantly) {
    net::Channel ch{net::ChannelParameters::ideal(), sim::RngStream{1}};
    for (int i = 0; i < 100; ++i) {
        const auto plan = ch.plan_delivery(SimTime::origin());
        EXPECT_FALSE(plan.dropped);
        EXPECT_FALSE(plan.duplicated);
        EXPECT_EQ(plan.delay, SimDuration::zero());
    }
}

TEST(Channel, LatencyAndJitterBounds) {
    net::ChannelParameters p;
    p.base_latency = 10_ms;
    p.jitter_sd = 2_ms;
    net::Channel ch{p, sim::RngStream{2}};
    sim::RunningStats delays;
    for (int i = 0; i < 5000; ++i) {
        const auto plan = ch.plan_delivery(SimTime::origin());
        ASSERT_FALSE(plan.dropped);
        ASSERT_GE(plan.delay, SimDuration::zero());
        delays.add(plan.delay.to_millis());
    }
    EXPECT_NEAR(delays.mean(), 10.0, 0.2);
    EXPECT_NEAR(delays.stddev(), 2.0, 0.2);
}

TEST(Channel, LossRateMatchesParameter) {
    net::ChannelParameters p;
    p.loss_probability = 0.25;
    net::Channel ch{p, sim::RngStream{3}};
    int dropped = 0;
    for (int i = 0; i < 20000; ++i) {
        dropped += ch.plan_delivery(SimTime::origin()).dropped ? 1 : 0;
    }
    EXPECT_NEAR(dropped / 20000.0, 0.25, 0.02);
}

TEST(Channel, DuplicationRate) {
    net::ChannelParameters p;
    p.duplicate_probability = 0.1;
    net::Channel ch{p, sim::RngStream{4}};
    int dup = 0;
    for (int i = 0; i < 20000; ++i) {
        dup += ch.plan_delivery(SimTime::origin()).duplicated ? 1 : 0;
    }
    EXPECT_NEAR(dup / 20000.0, 0.1, 0.02);
}

TEST(Channel, ReorderHoldbackDelaysWithinWindow) {
    net::ChannelParameters p;
    p.base_latency = sim::SimDuration::zero();
    p.jitter_sd = sim::SimDuration::zero();
    p.reorder_probability = 1.0;
    p.reorder_window = 200_ms;
    net::Channel ch{p, sim::RngStream{41}};
    int held = 0;
    for (int i = 0; i < 2000; ++i) {
        const auto plan = ch.plan_delivery(SimTime::origin());
        ASSERT_FALSE(plan.dropped);
        ASSERT_LE(plan.delay, 200_ms);
        held += plan.delay > SimDuration::zero() ? 1 : 0;
    }
    // Holdback is uniform over the window; virtually all draws are > 0.
    EXPECT_GT(held, 1900);
}

TEST(Channel, ReorderRateMatchesParameter) {
    net::ChannelParameters p;
    p.base_latency = sim::SimDuration::zero();
    p.jitter_sd = sim::SimDuration::zero();
    p.reorder_probability = 0.3;
    net::Channel ch{p, sim::RngStream{43}};
    int held = 0;
    for (int i = 0; i < 20000; ++i) {
        held += ch.plan_delivery(SimTime::origin()).delay >
                        SimDuration::zero()
                    ? 1
                    : 0;
    }
    EXPECT_NEAR(held / 20000.0, 0.3, 0.02);
}

TEST(Channel, CorruptRateMatchesParameter) {
    net::ChannelParameters p;
    p.corrupt_probability = 0.2;
    net::Channel ch{p, sim::RngStream{47}};
    int corrupted = 0;
    for (int i = 0; i < 20000; ++i) {
        corrupted += ch.plan_delivery(SimTime::origin()).corrupted ? 1 : 0;
    }
    EXPECT_NEAR(corrupted / 20000.0, 0.2, 0.02);
}

TEST(ChannelParameters, ReorderAndCorruptValidation) {
    net::ChannelParameters p;
    p.reorder_probability = 1.5;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = {};
    p.corrupt_probability = -0.1;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = {};
    p.reorder_probability = 0.5;
    p.reorder_window = -(1_ms);
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Channel, OutageDropsEverything) {
    net::Channel ch{net::ChannelParameters::ideal(), sim::RngStream{5}};
    ch.add_outage(SimTime::origin() + 10_s, SimTime::origin() + 20_s);
    EXPECT_FALSE(ch.plan_delivery(SimTime::origin() + 5_s).dropped);
    EXPECT_TRUE(ch.plan_delivery(SimTime::origin() + 10_s).dropped);
    EXPECT_TRUE(ch.plan_delivery(SimTime::origin() + 15_s).dropped);
    EXPECT_FALSE(ch.plan_delivery(SimTime::origin() + 20_s).dropped);
    EXPECT_TRUE(ch.in_outage(SimTime::origin() + 12_s));
    EXPECT_THROW(ch.add_outage(SimTime::origin() + 5_s, SimTime::origin() + 5_s),
                 std::invalid_argument);
}

TEST(Bus, DeliversToMatchingSubscribers) {
    sim::Simulation s;
    net::Bus bus{s, net::ChannelParameters::ideal()};
    std::vector<std::string> got;
    bus.subscribe("a", "vitals/*", [&](const net::Message& m) {
        got.push_back("a:" + m.topic);
    });
    bus.subscribe("b", "alarm/x", [&](const net::Message& m) {
        got.push_back("b:" + m.topic);
    });
    bus.publish("pub", "vitals/bed1/spo2", net::VitalSignPayload{});
    bus.publish("pub", "alarm/x", net::StatusPayload{});
    bus.publish("pub", "other", net::StatusPayload{});
    s.run_all();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], "a:vitals/bed1/spo2");
    EXPECT_EQ(got[1], "b:alarm/x");
    EXPECT_EQ(bus.stats().published, 3u);
    EXPECT_EQ(bus.stats().delivered, 2u);
}

TEST(Bus, SequenceNumbersIncrease) {
    sim::Simulation s;
    net::Bus bus{s, net::ChannelParameters::ideal()};
    const auto s1 = bus.publish("p", "t", net::StatusPayload{});
    const auto s2 = bus.publish("p", "t", net::StatusPayload{});
    EXPECT_GT(s2, s1);
}

TEST(Bus, EnvelopeFieldsPopulated) {
    sim::Simulation s;
    net::Bus bus{s, net::ChannelParameters::ideal()};
    std::optional<net::Message> seen;
    bus.subscribe("sub", "t", [&](const net::Message& m) { seen = m; });
    s.run_for(5_s);
    bus.publish("sender", "t", net::VitalSignPayload{"spo2", 91.5, true});
    s.run_all();
    ASSERT_TRUE(seen.has_value());
    EXPECT_EQ(seen->sender, "sender");
    EXPECT_EQ(seen->topic, "t");
    EXPECT_EQ(seen->sent_at, SimTime::origin() + 5_s);
    EXPECT_DOUBLE_EQ(
        net::payload_as<net::VitalSignPayload>(*seen)->value, 91.5);
}

TEST(Bus, LatencyAppliesPerSubscriberChannel) {
    sim::Simulation s;
    net::Bus bus{s, net::ChannelParameters::ideal()};
    net::ChannelParameters slow;
    slow.base_latency = 100_ms;
    slow.jitter_sd = sim::SimDuration::zero();
    bus.set_endpoint_channel("slow_sub", slow);

    std::vector<std::pair<std::string, double>> arrivals;
    bus.subscribe("fast_sub", "t", [&](const net::Message&) {
        arrivals.emplace_back("fast", s.now().to_seconds());
    });
    bus.subscribe("slow_sub", "t", [&](const net::Message&) {
        arrivals.emplace_back("slow", s.now().to_seconds());
    });
    bus.publish("p", "t", net::StatusPayload{});
    s.run_all();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0].first, "fast");
    EXPECT_DOUBLE_EQ(arrivals[0].second, 0.0);
    EXPECT_EQ(arrivals[1].first, "slow");
    EXPECT_NEAR(arrivals[1].second, 0.1, 1e-9);
    EXPECT_GT(bus.stats().delivery_latency_ms.max(), 99.0);
}

TEST(Bus, LossyChannelDrops) {
    sim::Simulation s;
    net::ChannelParameters lossy;
    lossy.base_latency = sim::SimDuration::zero();
    lossy.jitter_sd = sim::SimDuration::zero();
    lossy.loss_probability = 0.5;
    net::Bus bus{s, lossy};
    int got = 0;
    bus.subscribe("sub", "t", [&](const net::Message&) { ++got; });
    for (int i = 0; i < 2000; ++i) bus.publish("p", "t", net::StatusPayload{});
    s.run_all();
    EXPECT_NEAR(got, 1000, 100);
    EXPECT_EQ(bus.stats().dropped + bus.stats().delivered, 2000u);
}

TEST(Bus, UnsubscribeStopsDeliveryIncludingInFlight) {
    sim::Simulation s;
    net::ChannelParameters delayed;
    delayed.base_latency = 50_ms;
    delayed.jitter_sd = sim::SimDuration::zero();
    net::Bus bus{s, delayed};
    int got = 0;
    auto id = bus.subscribe("sub", "t", [&](const net::Message&) { ++got; });
    bus.publish("p", "t", net::StatusPayload{});  // in flight
    EXPECT_TRUE(bus.unsubscribe(id));
    EXPECT_FALSE(bus.unsubscribe(id));  // second time: gone
    s.run_all();
    EXPECT_EQ(got, 0);  // in-flight delivery cancelled by detach
}

/// A handler that subscribes (growing the subscription list) and then
/// unsubscribes itself and a peer must keep running from intact state:
/// its capture is one pointer, small enough to live inside the
/// std::function, so a handler stored in the list itself would read
/// freed memory (ASan reports it). Order and cancellation are as for
/// calls made from outside a handler.
TEST(Bus, HandlerMaySubscribeAndUnsubscribeWhileRunning) {
    sim::Simulation s;
    net::ChannelParameters delayed;
    delayed.base_latency = 10_ms;
    delayed.jitter_sd = sim::SimDuration::zero();
    net::Bus bus{s, delayed};
    struct State {
        net::Bus* bus = nullptr;
        net::SubscriptionId self, peer;
        int calls = 0, peer_got = 0, added_got = 0;
        std::vector<int> order;
    } st;
    st.bus = &bus;
    st.self = bus.subscribe("a", "t", [p = &st](const net::Message&) {
        p->order.push_back(0);
        for (int i = 0; i < 64; ++i) {
            p->bus->subscribe("b", "t", [p](const net::Message&) {
                ++p->added_got;
            });
        }
        ++p->calls;  // reads the capture after the list grew
        EXPECT_TRUE(p->bus->unsubscribe(p->peer));  // its delivery is due
        EXPECT_TRUE(p->bus->unsubscribe(p->self));
        p->order.push_back(p->calls);  // and after it was erased
    });
    st.peer = bus.subscribe("c", "t", [p = &st](const net::Message&) {
        ++p->peer_got;
    });
    bus.publish("p", "t", net::StatusPayload{});
    s.run_all();
    EXPECT_EQ(st.calls, 1);
    EXPECT_EQ(st.order, (std::vector<int>{0, 1}));
    EXPECT_EQ(st.peer_got, 0);   // in flight, cancelled from the handler
    EXPECT_EQ(st.added_got, 0);  // subscribed after the publish
    EXPECT_EQ(bus.subscription_count(), 64u);

    bus.publish("p", "t", net::StatusPayload{});
    s.run_all();
    EXPECT_EQ(st.calls, 1);
    EXPECT_EQ(st.added_got, 64);
    EXPECT_EQ(bus.stats().delivered, 65u);
}

TEST(Bus, SubscriberAddedAfterPublishMissesMessage) {
    sim::Simulation s;
    net::ChannelParameters delayed;
    delayed.base_latency = 50_ms;
    net::Bus bus{s, delayed};
    bus.publish("p", "t", net::StatusPayload{});
    int got = 0;
    bus.subscribe("late", "t", [&](const net::Message&) { ++got; });
    s.run_all();
    EXPECT_EQ(got, 0);
}

TEST(Bus, DuplicationDeliversTwice) {
    sim::Simulation s;
    net::ChannelParameters dup;
    dup.base_latency = sim::SimDuration::zero();
    dup.jitter_sd = sim::SimDuration::zero();
    dup.duplicate_probability = 1.0;
    net::Bus bus{s, dup};
    int got = 0;
    bus.subscribe("sub", "t", [&](const net::Message&) { ++got; });
    bus.publish("p", "t", net::StatusPayload{});
    s.run_all();
    EXPECT_EQ(got, 2);
    EXPECT_EQ(bus.stats().duplicated, 1u);
}

TEST(Bus, CorruptionGarblesVitalsOnly) {
    sim::Simulation s;
    net::ChannelParameters corrupting;
    corrupting.base_latency = sim::SimDuration::zero();
    corrupting.jitter_sd = sim::SimDuration::zero();
    corrupting.corrupt_probability = 1.0;
    net::Bus bus{s, corrupting};
    std::vector<double> vitals;
    int commands = 0;
    bus.subscribe("sub", "vitals/*", [&](const net::Message& m) {
        vitals.push_back(net::payload_as<net::VitalSignPayload>(m)->value);
    });
    bus.subscribe("sub", "cmd/p", [&](const net::Message& m) {
        ASSERT_NE(net::payload_as<net::CommandPayload>(m), nullptr);
        ++commands;
    });
    bus.publish("oxi", "vitals/bed1/spo2", net::VitalSignPayload{"spo2", 97.0, true});
    bus.publish("sup", "cmd/p", net::CommandPayload{"stop_infusion", {}, 1});
    s.run_all();
    ASSERT_EQ(vitals.size(), 1u);
    // Vital garbled to a value unrelated to the original...
    EXPECT_NE(vitals[0], 97.0);
    EXPECT_GE(vitals[0], 0.0);
    EXPECT_LE(vitals[0], 250.0);
    // ...while the CRC-protected command payload passes intact.
    EXPECT_EQ(commands, 1);
    EXPECT_EQ(bus.stats().corrupted, 1u);
}

TEST(Bus, CorruptionIsDeterministicPerSequence) {
    const auto run = [] {
        sim::Simulation s;
        net::ChannelParameters corrupting;
        corrupting.corrupt_probability = 1.0;
        net::Bus bus{s, corrupting};
        std::vector<double> got;
        bus.subscribe("sub", "v", [&](const net::Message& m) {
            got.push_back(net::payload_as<net::VitalSignPayload>(m)->value);
        });
        for (int i = 0; i < 5; ++i) {
            bus.publish("p", "v", net::VitalSignPayload{"spo2", 97.0, true});
        }
        s.run_all();
        return got;
    };
    EXPECT_EQ(run(), run());
}

TEST(Bus, PartitionSilencesAllEndpointsIncludingLateOnes) {
    sim::Simulation s;
    net::Bus bus{s, net::ChannelParameters::ideal()};
    int got_a = 0, got_b = 0;
    bus.subscribe("a", "t", [&](const net::Message&) { ++got_a; });
    bus.add_partition(SimTime::origin() + 10_s, SimTime::origin() + 20_s);
    // Endpoint whose channel is created lazily *after* the partition was
    // declared must still observe it.
    bus.subscribe("b", "t", [&](const net::Message&) { ++got_b; });
    bus.publish("p", "t", net::StatusPayload{});  // before: delivered
    s.run_for(15_s);
    bus.publish("p", "t", net::StatusPayload{});  // inside: dropped
    s.run_for(10_s);
    bus.publish("p", "t", net::StatusPayload{});  // after: delivered
    s.run_all();
    EXPECT_EQ(got_a, 2);
    EXPECT_EQ(got_b, 2);
}

TEST(Bus, EmptyHandlerRejected) {
    sim::Simulation s;
    net::Bus bus{s};
    EXPECT_THROW(bus.subscribe("x", "t", nullptr), std::invalid_argument);
}

/// Steady-state publishing serves message slots from the pool's free
/// list: once the first publish has been delivered, further publishes
/// construct no new slots.
TEST(Bus, WarmPublishesAllocateNoPoolSlots) {
    sim::Simulation s;
    net::Bus bus{s, net::ChannelParameters::ideal()};
    std::uint64_t delivered = 0;
    for (int i = 0; i < 8; ++i) {
        bus.subscribe("sub" + std::to_string(i), "vitals/*",
                      [&](const net::Message&) { ++delivered; });
    }
    bus.publish("pub", "vitals/bed1/spo2",
                net::VitalSignPayload{"spo2", 97.0, true});
    s.run_all();
    const std::uint64_t slots_after_first = bus.pool_stats().slot_allocs;
    EXPECT_GT(slots_after_first, 0u);
    for (int i = 0; i < 1000; ++i) {
        bus.publish("pub", "vitals/bed1/spo2",
                    net::VitalSignPayload{"spo2", 97.0, true});
        s.run_all();
    }
    EXPECT_EQ(delivered, 8u * 1001u);
    EXPECT_EQ(bus.pool_stats().slot_allocs, slots_after_first)
        << "warm publishes constructed new message slots";
    EXPECT_GE(bus.pool_stats().recycled, 1000u);
}

TEST(Bus, OutageInjectionViaEndpointChannel) {
    sim::Simulation s;
    net::Bus bus{s, net::ChannelParameters::ideal()};
    int got = 0;
    bus.subscribe("sub", "t", [&](const net::Message&) { ++got; });
    bus.endpoint_channel("sub").add_outage(SimTime::origin(),
                                           SimTime::origin() + 10_s);
    bus.publish("p", "t", net::StatusPayload{});
    s.run_for(11_s);
    bus.publish("p", "t", net::StatusPayload{});
    s.run_all();
    EXPECT_EQ(got, 1);  // first publish fell in the outage
}

// ---------------------------------------------------------- publishers ----

/// One delivery as its subscriber saw it.
struct Delivery {
    std::uint64_t seq = 0;
    std::string endpoint;
    std::int64_t at_us = 0;
    bool operator==(const Delivery&) const = default;
};

/// One step of a random bus script. `arg` picks the endpoint, pattern,
/// subscription or route; `arg2` the second choice or a delay.
struct Step {
    enum Kind { kSubscribe, kUnsubscribe, kPublish, kAdvance } kind;
    std::uint64_t arg = 0;
    std::uint64_t arg2 = 0;
};

constexpr const char* kEndpoints[] = {"sup", "interlock", "monitor", "rec"};
constexpr const char* kPatterns[] = {"*",         "vitals/*", "vitals/bed1/spo2",
                                     "cmd/pump1", "status/*", "heartbeat/oxi1"};
/// (sender, topic) pairs; the last one matches no pattern but "*".
constexpr const char* kRoutes[][2] = {
    {"oxi1", "vitals/bed1/spo2"}, {"oxi1", "vitals/bed1/pulse_rate"},
    {"oxi1", "heartbeat/oxi1"},   {"oxi1", "status/oxi1"},
    {"sup", "cmd/pump1"},         {"x", "nobody/listens"}};

std::vector<Step> random_script(std::uint64_t seed, int n) {
    sim::RngStream rng{seed};
    std::vector<Step> out;
    for (int i = 0; i < n; ++i) {
        const auto r = rng.uniform_int(0, 99);
        Step st{r < 15   ? Step::kSubscribe
                : r < 25 ? Step::kUnsubscribe
                : r < 85 ? Step::kPublish
                         : Step::kAdvance,
                static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
                static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20))};
        out.push_back(st);
    }
    return out;
}

/// Plays \p script on a lossy, jittery, duplicating bus and returns
/// every delivery in order. Publishes go through handles advertised
/// before the first subscription (so every route goes stale and must
/// re-resolve) or through the (sender, topic) strings. One subscriber
/// in three mutates the bus from its handler: on odd sequence numbers
/// it subscribes a new recorder, on even ones it unsubscribes the
/// oldest live subscription (possibly itself).
std::vector<Delivery> run_script(const std::vector<Step>& script,
                                 bool handles) {
    sim::Simulation s{2024};
    net::ChannelParameters link;
    link.base_latency = 20_ms;
    link.jitter_sd = 15_ms;
    link.loss_probability = 0.1;
    link.duplicate_probability = 0.05;
    link.reorder_probability = 0.1;
    net::Bus bus{s, link};

    struct State {
        sim::Simulation* sim = nullptr;
        net::Bus* bus = nullptr;
        std::vector<Delivery> got;
        std::vector<net::SubscriptionId> live;
        net::Bus::Handler recorder(std::string endpoint) {
            return [this, endpoint](const net::Message& m) {
                got.push_back({m.seq, endpoint, sim->now().ticks()});
            };
        }
        net::Bus::Handler mutator(std::string endpoint) {
            return [this, endpoint](const net::Message& m) {
                got.push_back({m.seq, endpoint, sim->now().ticks()});
                if (m.seq % 2 == 1) {
                    live.push_back(bus->subscribe(endpoint + "+", "vitals/*",
                                                  recorder(endpoint + "+")));
                } else if (!live.empty()) {
                    bus->unsubscribe(live.front());
                    live.erase(live.begin());
                }
            };
        }
    } st;
    st.sim = &s;
    st.bus = &bus;

    std::vector<net::Publisher> pubs;
    if (handles) {
        for (const auto& r : kRoutes) pubs.push_back(bus.advertise(r[0], r[1]));
    }
    std::uint64_t subscribed = 0;
    for (const Step& step : script) {
        switch (step.kind) {
            case Step::kSubscribe: {
                const std::string ep = kEndpoints[step.arg % std::size(kEndpoints)];
                const char* pattern = kPatterns[step.arg2 % std::size(kPatterns)];
                st.live.push_back(bus.subscribe(
                    ep, pattern,
                    subscribed++ % 3 == 2 ? st.mutator(ep) : st.recorder(ep)));
                break;
            }
            case Step::kUnsubscribe:
                if (!st.live.empty()) {
                    const auto i = step.arg % st.live.size();
                    bus.unsubscribe(st.live[i]);
                    st.live.erase(st.live.begin() +
                                  static_cast<std::ptrdiff_t>(i));
                }
                break;
            case Step::kPublish: {
                const auto i = step.arg % std::size(kRoutes);
                net::Payload p = net::VitalSignPayload{"spo2", 97.0, true};
                if (handles) {
                    bus.publish(pubs[i], std::move(p));
                } else {
                    bus.publish(kRoutes[i][0], kRoutes[i][1], std::move(p));
                }
                break;
            }
            case Step::kAdvance:
                s.run_for(sim::SimDuration::millis(
                    static_cast<std::int64_t>(step.arg2 % 60)));
                break;
        }
    }
    s.run_all();
    return st.got;
}

/// Order-sensitive digest of a delivery sequence.
std::uint64_t delivery_digest(const std::vector<Delivery>& d) {
    std::uint64_t h = sim::kFnvOffset;
    for (const auto& x : d) {
        h = sim::mix(h, x.seq);
        h = sim::mix_string(h, x.endpoint);
        h = sim::mix(h, static_cast<std::uint64_t>(x.at_us));
    }
    return h;
}

TEST(Publisher, RandomScriptDeliversTheSameThroughHandlesAndStrings) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 4242ULL}) {
        const auto script = random_script(seed, 3000);
        const auto by_handle = run_script(script, true);
        const auto by_string = run_script(script, false);
        EXPECT_GT(by_handle.size(), 1000u) << "seed " << seed;
        EXPECT_EQ(by_handle, by_string) << "seed " << seed;
    }
}

TEST(Publisher, RandomScriptMatchesPerMessageMatching) {
    // Digests of the scripts' deliveries, captured from the bus that
    // matched every subscription against the topic on every publish
    // (before routes existed): the route table changes no delivery, no
    // delivery time and no channel RNG draw.
    constexpr std::pair<std::uint64_t, std::uint64_t> kPinned[] = {
        {1, 0xad87adbb06c4ad94ULL},
        {7, 0xcaf35bce5860bd19ULL},
        {4242, 0xff7b032f3e250cf3ULL}};
    for (const auto& [seed, digest] : kPinned) {
        EXPECT_EQ(delivery_digest(run_script(random_script(seed, 3000), true)),
                  digest)
            << "seed " << seed;
    }
}

TEST(Publisher, AdvertiseIsIdempotentPerSenderAndTopic) {
    sim::Simulation s;
    net::Bus bus{s};
    const auto a = bus.advertise("oxi1", "vitals/bed1/spo2");
    const auto b = bus.advertise("oxi1", "vitals/bed1/pulse_rate");
    const auto c = bus.advertise("oxi2", "vitals/bed1/spo2");
    EXPECT_TRUE(a.valid());
    EXPECT_EQ(bus.advertise("oxi1", "vitals/bed1/spo2").route, a.route);
    EXPECT_NE(a.route, b.route);
    EXPECT_NE(a.route, c.route);
    EXPECT_FALSE(net::Publisher{}.valid());
    EXPECT_THROW(bus.publish(net::Publisher{}, net::StatusPayload{}),
                 std::invalid_argument);
}

TEST(Publisher, SubscriberAddedAfterPublishMissesInFlightMessage) {
    sim::Simulation s;
    net::ChannelParameters delayed;
    delayed.base_latency = 50_ms;
    net::Bus bus{s, delayed};
    const auto pub = bus.advertise("p", "t");
    int early = 0, late = 0;
    bus.subscribe("early", "t", [&](const net::Message&) { ++early; });
    bus.publish(pub, net::StatusPayload{});  // resolves the route: early
    bus.subscribe("late", "t", [&](const net::Message&) { ++late; });
    s.run_all();
    EXPECT_EQ(early, 1);
    EXPECT_EQ(late, 0);
    bus.publish(pub, net::StatusPayload{});  // stale route re-resolves
    s.run_all();
    EXPECT_EQ(early, 2);
    EXPECT_EQ(late, 1);
}

TEST(Publisher, UnmatchedPublishRecordsAndCountsButBuildsNoMessage) {
    sim::Simulation s;
    net::Bus bus{s};
    obs::EventLog log;
    bus.set_event_log(&log);
    bus.subscribe("sup", "vitals/*", [](const net::Message&) {});
    const auto pub = bus.advertise("oxi1", "heartbeat/oxi1");
    const std::uint64_t first = bus.publish(pub, net::HeartbeatPayload{1});
    const std::uint64_t second =
        bus.publish("oxi1", "heartbeat/oxi1", net::HeartbeatPayload{2});
    s.run_all();
    EXPECT_EQ(second, first + 1);
    EXPECT_EQ(bus.stats().published, 2u);
    EXPECT_EQ(bus.stats().delivered, 0u);
    EXPECT_EQ(bus.pool_stats().acquired, 0u);
    ASSERT_EQ(log.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const obs::Event& e = log.events()[i];
        EXPECT_EQ(e.kind, obs::EventKind::kBusPublish);
        EXPECT_EQ(log.symbol(e.source), "oxi1");
        EXPECT_EQ(log.symbol(e.detail), "heartbeat/oxi1");
        EXPECT_EQ(e.value, static_cast<double>(first + i));
    }
}

}  // namespace
