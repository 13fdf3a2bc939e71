/// \file test_determinism.cpp
/// \brief Cross-cutting determinism guarantees: identical seeds must
/// reproduce identical behaviour through every stochastic layer. These
/// are the guarantees that make the experiment tables regenerable.

#include <gtest/gtest.h>

#include <sstream>

#include "core/core.hpp"
#include "net/net.hpp"
#include "sim/sim.hpp"
#include "ta/ta.hpp"

namespace {

using namespace mcps;
using namespace mcps::sim::literals;

TEST(Determinism, BusDeliveryOrderReproducible) {
    auto run = [](std::uint64_t seed) {
        sim::Simulation sim{seed};
        net::ChannelParameters noisy;
        noisy.base_latency = 20_ms;
        noisy.jitter_sd = 15_ms;
        noisy.loss_probability = 0.2;
        net::Bus bus{sim, noisy};
        std::vector<std::uint64_t> order;
        bus.subscribe("a", "t/*",
                      [&](const net::Message& m) { order.push_back(m.seq); });
        bus.subscribe("b", "t/*", [&](const net::Message& m) {
            order.push_back(1000000 + m.seq);
        });
        for (int i = 0; i < 200; ++i) {
            bus.publish("p", "t/x", net::StatusPayload{});
            sim.run_for(5_ms);
        }
        sim.run_all();
        return order;
    };
    EXPECT_EQ(run(5), run(5));
    EXPECT_NE(run(5), run(6));
}

TEST(Determinism, SensorStreamsIndependentOfEachOther) {
    // Adding a SECOND sensor must not change the first sensor's readings
    // (named RNG streams; the variance-reduction property DESIGN.md
    // promises).
    auto readings_with = [](bool add_second) {
        sim::Simulation sim{9};
        sim::TraceRecorder trace;
        net::Bus bus{sim, net::ChannelParameters::ideal()};
        physio::Patient patient{
            physio::nominal_parameters(physio::Archetype::kTypicalAdult)};
        mcps::obs::EventLog events;
        devices::DeviceContext ctx{sim, bus, trace, events};
        devices::PulseOximeterConfig cfg;
        cfg.spo2_noise_sd = 1.0;
        devices::PulseOximeter oxi{ctx, "oxi1", patient, cfg};
        std::optional<devices::Capnometer> cap;
        if (add_second) {
            cap.emplace(ctx, "cap1", patient);
            cap->start();
        }
        oxi.start();
        std::vector<double> readings;
        bus.subscribe("t", "vitals/bed1/spo2", [&](const net::Message& m) {
            readings.push_back(
                net::payload_as<net::VitalSignPayload>(m)->value);
        });
        sim.schedule_periodic(500_ms, [&] { patient.step(0.5); });
        sim.run_for(30_s);
        return readings;
    };
    EXPECT_EQ(readings_with(false), readings_with(true));
}

TEST(Determinism, XrayScenarioEventCountsStable) {
    core::XrayScenarioConfig cfg;
    cfg.seed = 100;
    cfg.procedures = 8;
    cfg.mode = core::CoordinationMode::kAutomated;
    cfg.channel.loss_probability = 0.15;
    const auto a = core::run_xray_scenario(cfg);
    const auto b = core::run_xray_scenario(cfg);
    EXPECT_EQ(a.sharp_images, b.sharp_images);
    EXPECT_EQ(a.total_retries, b.total_retries);
    EXPECT_DOUBLE_EQ(a.max_apnea_s, b.max_apnea_s);
}

TEST(Determinism, TaSimulationReproducible) {
    const auto model = ta::build_closed_loop_model();
    sim::RngStream r1{3, "x"}, r2{3, "x"};
    ta::SimulateOptions opts;
    opts.max_steps = 50;
    for (int i = 0; i < 5; ++i) {
        const auto a = ta::simulate_run(model, r1, opts);
        const auto b = ta::simulate_run(model, r2, opts);
        ASSERT_EQ(a.visited, b.visited);
        ASSERT_DOUBLE_EQ(a.total_time, b.total_time);
    }
}

TEST(Determinism, PopulationSamplingOrderIndependence) {
    // Sampling patient k is unaffected by whether patients 0..k-1 were
    // materialized from the same stream one-by-one or in bulk.
    sim::RngStream bulk{21, "pop"};
    const auto all =
        physio::sample_population(physio::Archetype::kHighRisk, 5, bulk);
    sim::RngStream incremental{21, "pop"};
    for (int i = 0; i < 5; ++i) {
        const auto p =
            physio::sample_patient(physio::Archetype::kHighRisk, incremental);
        EXPECT_DOUBLE_EQ(p.pd.ec50_ng_ml, all[i].pd.ec50_ng_ml);
        EXPECT_DOUBLE_EQ(p.pk.v1_liters, all[i].pk.v1_liters);
    }
}

TEST(Determinism, FullScenarioTraceIdentical) {
    auto run_csv = [] {
        core::PcaScenarioConfig cfg;
        cfg.seed = 404;
        cfg.duration = 20_min;
        cfg.patient =
            physio::nominal_parameters(physio::Archetype::kOpioidSensitive);
        cfg.demand_mode = core::DemandMode::kProxy;
        core::PcaScenario sc{cfg};
        (void)sc.run();
        std::ostringstream os;
        sc.trace().write_csv(os);
        return os.str();
    };
    EXPECT_EQ(run_csv(), run_csv());
}

}  // namespace
