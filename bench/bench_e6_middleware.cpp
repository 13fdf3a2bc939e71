/// \file bench_e6_middleware.cpp
/// \brief Experiment E6 — the ICE middleware scales to realistic device
/// ensembles: on-demand assembly cost, bus throughput, and heartbeat
/// failure-detection latency trade-offs.
///
/// E6a: device-count sweep. N pulse oximeters (each on its own bed
///      topic) publish at 1 Hz with heartbeats; wall-clock cost per
///      simulated minute and bus delivery stats are reported.
/// E6b: heartbeat-period vs detection-latency trade-off: a device
///      crashes mid-run; the supervisor's detection delay is measured in
///      simulated time across heartbeat periods and timeout multiples.

#include <chrono>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_io.hpp"
#include "core/core.hpp"
#include "ice/ice.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"

using namespace mcps;
using namespace mcps::sim::literals;

namespace {

double wall_ms(const std::function<void()>& f) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
    mcps::benchio::JsonReporter json{argc, argv, "e6_middleware"};
    json.set_seed(7);
    const bool quick = mcps::benchio::quick_mode(argc, argv);
    std::cout << "E6: ICE middleware scalability\n\n";

    // ---- E6a: device-count sweep --------------------------------------
    {
        sim::Table t({"devices", "published", "delivered", "events",
                      "wall_ms_per_sim_min", "mean_delivery_ms"});
        // The 128-device ensemble dominates; --quick stops at 8.
        const std::vector<std::size_t> ensemble_sizes =
            quick ? std::vector<std::size_t>{2, 8}
                  : std::vector<std::size_t>{2, 8, 32, 128};
        for (const std::size_t n : ensemble_sizes) {
            sim::Simulation sim{7};
            sim::TraceRecorder trace;
            net::ChannelParameters ch;
            ch.base_latency = 5_ms;
            ch.jitter_sd = 1_ms;
            net::Bus bus{sim, ch};
            mcps::obs::EventLog events;
            devices::DeviceContext ctx{sim, bus, trace, events};
            physio::Patient patient{
                physio::nominal_parameters(physio::Archetype::kTypicalAdult)};
            ice::DeviceRegistry registry;

            std::vector<std::unique_ptr<devices::PulseOximeter>> sensors;
            for (std::size_t i = 0; i < n; ++i) {
                devices::PulseOximeterConfig cfg;
                cfg.bed = "bed" + std::to_string(i);
                auto d = std::make_unique<devices::PulseOximeter>(
                    ctx, "oxi" + std::to_string(i), patient, cfg);
                d->set_heartbeat_period(2_s);
                d->start();
                registry.add(*d);
                sensors.push_back(std::move(d));
            }
            ice::Supervisor sup{ctx, "sup", registry};
            sup.start();
            // One subscriber soaking up every vitals topic (a central
            // monitoring station).
            std::uint64_t received = 0;
            bus.subscribe("station", "vitals/*",
                          [&received](const net::Message&) { ++received; });

            sim.schedule_periodic(500_ms, [&] { patient.step(0.5); });
            const double ms =
                wall_ms([&] { sim.run_until(sim::SimTime::origin() + 1_min); });

            t.row()
                .cell(static_cast<std::uint64_t>(n))
                .cell(bus.stats().published)
                .cell(bus.stats().delivered)
                .cell(sim.events_dispatched())
                .cell(ms, 1)
                .cell(bus.stats().delivery_latency_ms.empty()
                          ? 0.0
                          : bus.stats().delivery_latency_ms.mean(),
                      2);
            const std::string key =
                "devices." + std::to_string(n) + ".wall_ms_per_sim_min";
            json.metric(key, ms, "ms");
        }
        t.print(std::cout, "E6a: device-count sweep (1 simulated minute)");
        std::cout << '\n';
    }

    // ---- E6b: heartbeat trade-off --------------------------------------
    {
        sim::Table t({"hb_period_s", "timeout_s", "detect_latency_s",
                      "hb_msgs_per_min_per_device"});
        for (const auto period : {500_ms, 1_s, 2_s, 5_s}) {
            const auto timeout = period * 3;
            sim::Simulation sim{11};
            sim::TraceRecorder trace;
            net::Bus bus{sim, net::ChannelParameters::ideal()};
            mcps::obs::EventLog events;
            devices::DeviceContext ctx{sim, bus, trace, events};
            physio::Patient patient{
                physio::nominal_parameters(physio::Archetype::kTypicalAdult)};
            ice::DeviceRegistry registry;
            devices::PulseOximeter oxi{ctx, "oxi", patient};
            oxi.set_heartbeat_period(period);
            oxi.start();
            registry.add(oxi);

            ice::SupervisorConfig scfg;
            scfg.heartbeat_timeout = timeout;
            scfg.check_period = 250_ms;
            ice::Supervisor sup{ctx, "sup", registry, scfg};
            sup.start();

            // Minimal app so the supervisor watches the device.
            struct WatchApp : ice::VmdApp {
                WatchApp() : ice::VmdApp{"watch"} {}
                std::vector<ice::Requirement> requirements() const override {
                    return {{devices::DeviceKind::kPulseOximeter, {}, "oxi"}};
                }
                void bind(const std::vector<ice::DeviceDescriptor>&) override {}
                void on_app_start() override {}
                void on_app_stop() override {}
                void on_device_lost(const std::string&) override {
                    if (lost_at) return;
                    lost_at = owner->now();
                }
                sim::Simulation* owner = nullptr;
                std::optional<sim::SimTime> lost_at;
            } app;
            app.owner = &sim;
            if (!sup.deploy(app).ok) return 1;

            const sim::SimTime crash_at = sim::SimTime::origin() + 30_s;
            sim.schedule_at(crash_at, [&] { oxi.crash(); });
            sim.run_until(sim::SimTime::origin() + 2_min);

            t.row()
                .cell(period.to_seconds(), 2)
                .cell(timeout.to_seconds(), 2)
                .cell(app.lost_at ? (*app.lost_at - crash_at).to_seconds()
                                  : -1.0,
                      2)
                .cell(60.0 / period.to_seconds(), 1);
            json.metric("heartbeat." + period.to_string() +
                            ".detect_latency_s",
                        app.lost_at ? (*app.lost_at - crash_at).to_seconds()
                                    : -1.0,
                        "s");
        }
        t.print(std::cout,
                "E6b: heartbeat period vs crash-detection latency");
        std::cout << '\n';
    }

    std::cout
        << "Expected shape: wall cost and traffic grow linearly with device\n"
           "count (topic filtering keeps delivery targeted); crash-detection\n"
           "latency tracks ~timeout (3x heartbeat period), making the\n"
           "bandwidth/latency trade explicit.\n";
    json.write();
    return 0;
}
