/// \file test_flow_monitor.cpp
/// \brief Tests for the QoS flow monitor (gaps, deadline misses,
/// reordering) including reordering actually produced by channel jitter.

#include <gtest/gtest.h>

#include "devices/devices.hpp"
#include "net/flow_monitor.hpp"
#include "net/net.hpp"
#include "physio/population.hpp"
#include "sim/simulation.hpp"
#include "testkit/fault_plan.hpp"

namespace {

using namespace mcps;
using namespace mcps::sim::literals;
using net::FlowConfig;
using net::FlowMonitor;

class FlowTest : public ::testing::Test {
protected:
    FlowTest() : sim_{42}, bus_{sim_, net::ChannelParameters::ideal()} {}

    void publish_vital(double v = 97.0) {
        bus_.publish("oxi", "vitals/bed1/spo2",
                     net::VitalSignPayload{"spo2", v, true});
    }

    sim::Simulation sim_;
    net::Bus bus_;
};

TEST_F(FlowTest, ConfigValidation) {
    FlowConfig cfg;
    cfg.deadline = sim::SimDuration::zero();
    EXPECT_THROW(FlowMonitor(sim_, bus_, cfg), std::invalid_argument);
}

TEST_F(FlowTest, CountsMessagesAndGaps) {
    FlowMonitor mon{sim_, bus_, FlowConfig{}};
    mon.start();
    for (int i = 0; i < 10; ++i) {
        publish_vital();
        sim_.run_for(1_s);
    }
    EXPECT_EQ(mon.stats().messages, 10u);
    EXPECT_EQ(mon.stats().gaps_ms.count(), 9u);
    EXPECT_NEAR(mon.stats().gaps_ms.mean(), 1000.0, 1.0);
    EXPECT_EQ(mon.stats().deadline_misses, 0u);
    EXPECT_FALSE(mon.currently_late());
}

TEST_F(FlowTest, DetectsDeadlineMissOncePerSilentWindow) {
    FlowConfig cfg;
    cfg.deadline = 3_s;
    FlowMonitor mon{sim_, bus_, cfg};
    mon.start();
    publish_vital();
    sim_.run_for(1_s);
    publish_vital();
    // Silence for 20 s: ONE miss, flagged late.
    sim_.run_for(20_s);
    EXPECT_EQ(mon.stats().deadline_misses, 1u);
    EXPECT_TRUE(mon.currently_late());
    // Flow resumes: flag clears; a second silence is a second miss.
    publish_vital();
    sim_.run_for(1_s);
    EXPECT_FALSE(mon.currently_late());
    sim_.run_for(20_s);
    EXPECT_EQ(mon.stats().deadline_misses, 2u);
}

TEST_F(FlowTest, NeverLateBeforeFirstMessage) {
    FlowMonitor mon{sim_, bus_, FlowConfig{}};
    mon.start();
    sim_.run_for(1_min);
    EXPECT_FALSE(mon.currently_late());
    EXPECT_EQ(mon.stats().deadline_misses, 0u);
}

TEST_F(FlowTest, StopDetaches) {
    FlowMonitor mon{sim_, bus_, FlowConfig{}};
    mon.start();
    mon.stop();
    publish_vital();
    sim_.run_for(1_s);
    EXPECT_EQ(mon.stats().messages, 0u);
}

TEST_F(FlowTest, TopicPatternFilters) {
    FlowConfig cfg;
    cfg.topic_pattern = "vitals/bed2/*";
    FlowMonitor mon{sim_, bus_, cfg};
    mon.start();
    publish_vital();  // bed1: not watched
    bus_.publish("cap", "vitals/bed2/etco2",
                 net::VitalSignPayload{"etco2", 38.0, true});
    sim_.run_for(1_s);
    EXPECT_EQ(mon.stats().messages, 1u);
}

TEST(FlowJitterTest, JitterProducesObservableReordering) {
    // High jitter relative to publish spacing reorders deliveries on a
    // subscriber link — the UDP-like behaviour the envelope seq exists
    // for. The monitor must count it.
    sim::Simulation sim{7};
    net::ChannelParameters noisy;
    noisy.base_latency = 50_ms;
    noisy.jitter_sd = 40_ms;
    net::Bus bus{sim, noisy};

    FlowConfig cfg;
    cfg.topic_pattern = "data/*";
    FlowMonitor mon{sim, bus, cfg};
    mon.start();
    // The monitor pinned its own endpoint to ideal; give it the noisy
    // link instead so it actually experiences the jitter.
    bus.set_endpoint_channel("flow_monitor", noisy);

    for (int i = 0; i < 500; ++i) {
        bus.publish("src", "data/x", net::StatusPayload{"s", ""});
        sim.run_for(10_ms);  // spacing << jitter: reordering guaranteed
    }
    // Drain in-flight deliveries (run_all would never return: the
    // monitor's periodic check keeps the queue alive forever).
    sim.run_for(2_s);
    EXPECT_EQ(mon.stats().messages, 500u);
    EXPECT_GT(mon.stats().reordered, 0u);
}

TEST(FlowBurstTest, BurstyTrafficUnderInjectedFaults) {
    // Bursty publisher (tight bursts separated by idle gaps) driven
    // through a testkit fault plan: a delay spike stales one burst, an
    // outage swallows another. The monitor must attribute misses to the
    // injected windows, not to the bursts themselves.
    sim::Simulation sim{13};
    net::ChannelParameters link;
    link.base_latency = 5_ms;
    link.jitter_sd = 1_ms;
    net::Bus bus{sim, link};

    FlowConfig cfg;
    cfg.topic_pattern = "vitals/bed1/*";
    cfg.deadline = 8_s;
    FlowMonitor mon{sim, bus, cfg};
    mon.start();
    bus.set_endpoint_channel("flow_monitor", link);

    testkit::FaultPlan plan;
    // +12 s latency over [65 s, 77 s): bursts sent in that window arrive
    // ~12 s stale, opening an arrival gap longer than the deadline.
    plan.events.push_back({testkit::FaultKind::kDelaySpike, 65_s, 12_s,
                           "flow_monitor", 12000.0});
    // Hard outage swallowing the bursts sent in [95 s, 110 s).
    plan.events.push_back(
        {testkit::FaultKind::kOutage, 95_s, 15_s, "flow_monitor", 0.0});
    mcps::obs::EventLog events;
    testkit::FaultInjector injector{sim, bus, events};
    injector.arm(plan);
    EXPECT_EQ(injector.armed(), 2u);

    // 20 bursts of 10 messages at 100 ms spacing, one burst every 6 s —
    // the ~5 s quiet gap between bursts stays under the 8 s deadline.
    int sent = 0;
    for (int burst = 0; burst < 20; ++burst) {
        sim.run_until(sim::SimTime::origin() +
                      sim::SimDuration::seconds(burst * 6));
        for (int i = 0; i < 10; ++i) {
            bus.publish("oxi", "vitals/bed1/spo2",
                        net::VitalSignPayload{"spo2", 97.0, true});
            ++sent;
            sim.run_for(100_ms);
        }
    }
    sim.run_for(30_s);

    // One silent window per injected fault (plus the tail after the last
    // burst); the bursts themselves never trip the deadline.
    EXPECT_GE(mon.stats().deadline_misses, 2u);
    EXPECT_LE(mon.stats().deadline_misses, 4u);
    // The outage swallowed ~3 bursts; everything else arrived.
    EXPECT_LT(mon.stats().messages, static_cast<std::uint64_t>(sent));
    EXPECT_GE(mon.stats().messages, static_cast<std::uint64_t>(sent - 40));
    // Spike-held messages arrive after later sends: observable reordering.
    EXPECT_GT(mon.stats().reordered, 0u);
}

TEST(FlowScenarioTest, SensorDropoutSurfacesAsDeadlineMiss) {
    // Integration: the monitor sees the same staleness the interlock's
    // fail-safe acts on.
    sim::Simulation sim{11};
    sim::TraceRecorder trace;
    net::Bus bus{sim, net::ChannelParameters::ideal()};
    physio::Patient patient{
        physio::nominal_parameters(physio::Archetype::kTypicalAdult)};
    mcps::obs::EventLog events;
    devices::DeviceContext ctx{sim, bus, trace, events};
    devices::PulseOximeter oxi{ctx, "oxi1", patient};
    oxi.start();

    FlowConfig cfg;
    cfg.topic_pattern = "vitals/bed1/spo2";
    cfg.deadline = 5_s;
    FlowMonitor mon{sim, bus, cfg};
    mon.start();

    sim.run_for(30_s);
    EXPECT_EQ(mon.stats().deadline_misses, 0u);
    oxi.force_dropout(30_s);
    sim.run_for(40_s);
    EXPECT_EQ(mon.stats().deadline_misses, 1u);
    EXPECT_GT(mon.stats().gaps_ms.max(), 29000.0);
}

}  // namespace
