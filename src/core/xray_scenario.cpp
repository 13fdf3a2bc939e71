#include "xray_scenario.hpp"

#include <algorithm>

#include "ice/ice.hpp"
#include "sim/trace.hpp"

namespace mcps::core {

using mcps::sim::SimDuration;
using mcps::sim::SimTime;

std::string_view to_string(CoordinationMode m) noexcept {
    switch (m) {
        case CoordinationMode::kManual: return "manual";
        case CoordinationMode::kAutomated: return "automated";
    }
    return "unknown";
}

XrayScenarioResult run_xray_scenario(const XrayScenarioConfig& cfg) {
    mcps::sim::Simulation sim{cfg.seed};
    mcps::sim::TraceRecorder trace;
    net::Bus bus{sim, cfg.channel};
    bus.set_event_log(cfg.events);
    physio::Patient patient{cfg.patient};
    devices::DeviceContext ctx{sim, bus, trace, cfg.events};

    if (auto* log = cfg.events) {
        log->emit(mcps::obs::EventKind::kScenarioStart, sim.now(), "xray",
                  std::string{to_string(cfg.mode)},
                  static_cast<double>(cfg.seed));
    }

    devices::Ventilator vent{ctx, "vent1", patient, cfg.ventilator};
    // The motion probe is scenario wiring: chest moves when the
    // ventilator says so (it also consults spontaneous breathing).
    devices::XRayMachine xray{
        ctx, "xray1", [&vent] { return vent.chest_moving(); }, cfg.xray};

    vent.set_heartbeat_period(SimDuration::seconds(2));
    xray.set_heartbeat_period(SimDuration::seconds(2));
    vent.start();
    xray.start();

    ice::DeviceRegistry registry;
    registry.add(vent);
    registry.add(xray);

    std::optional<ice::Supervisor> supervisor;
    std::optional<XrayVentSync> app;
    std::optional<ManualCoordinator> manual;

    if (cfg.mode == CoordinationMode::kAutomated) {
        supervisor.emplace(ctx, "supervisor1", registry);
        supervisor->start();
        app.emplace(ctx, "xray_sync", cfg.sync);
        const auto deploy = supervisor->deploy(*app);
        if (!deploy.ok) {
            throw std::runtime_error("xray scenario deploy failed: " +
                                     deploy.error);
        }
    } else {
        manual.emplace(ctx, cfg.manual, sim.rng("manual_coordinator"));
    }

    // Physiology stepping + ground truth.
    sim.schedule_periodic(SimDuration::millis(500), [&] {
        patient.step(0.5);
    });
    mcps::sim::Signal* truth_spo2 = nullptr;  // resolved on the first tick
    sim.schedule_periodic(SimDuration::seconds(1), [&] {
        if (truth_spo2 == nullptr) truth_spo2 = &trace.signal("truth/spo2");
        truth_spo2->record(sim.now(), patient.spo2().as_percent());
    });

    // Procedure requests at fixed intervals.
    for (std::size_t i = 0; i < cfg.procedures; ++i) {
        const SimTime at =
            SimTime::origin() + SimDuration::seconds(30) + cfg.procedure_gap * static_cast<std::int64_t>(i);
        sim.schedule_at(at, [&] {
            if (app) {
                app->request_exposure();
            } else if (manual) {
                manual->run_procedure(vent, xray);
            }
        });
    }

    const SimTime end = SimTime::origin() + SimDuration::seconds(60) +
                        cfg.procedure_gap * static_cast<std::int64_t>(cfg.procedures);
    sim.run_until(end);

    // Collect outcomes.
    XrayScenarioResult r;
    const auto& outcomes = app ? app->outcomes() : manual->outcomes();
    r.procedures = cfg.procedures;
    mcps::sim::RunningStats apnea;
    for (const auto& o : outcomes) {
        if (o.completed) ++r.completed;
        if (o.image_sharp) ++r.sharp_images;
        apnea.add(o.apnea_s);
        r.total_retries += o.command_retries;
    }
    r.sharp_rate = cfg.procedures
                       ? static_cast<double>(r.sharp_images) /
                             static_cast<double>(cfg.procedures)
                       : 0.0;
    r.mean_apnea_s = apnea.mean();
    r.max_apnea_s = apnea.empty() ? 0.0 : apnea.max();
    r.safety_auto_resumes = vent.stats().safety_auto_resumes;
    if (const auto* spo2 = trace.find("truth/spo2"); spo2 && !spo2->empty()) {
        r.min_spo2 = spo2->stats().min();
    }

    if (supervisor) supervisor->stop();
    vent.stop();
    xray.stop();
    if (auto* log = cfg.events) {
        log->emit(mcps::obs::EventKind::kScenarioEnd, sim.now(), "xray",
                  std::to_string(r.completed) + "/" +
                      std::to_string(r.procedures) + "-completed",
                  static_cast<double>(sim.events_dispatched()));
    }
    return r;
}

}  // namespace mcps::core
