#include "pca_scenario.hpp"

#include <cmath>

#include "ice/ice.hpp"

namespace mcps::core {

using mcps::sim::SimDuration;
using mcps::sim::SimTime;

struct PcaScenario::Impl {
    PcaScenarioConfig cfg;

    mcps::sim::Simulation sim;
    mcps::sim::TraceRecorder trace;
    net::Bus bus;
    physio::Patient patient;
    physio::DemandModel demand;

    devices::DeviceContext ctx;
    devices::GpcaPump pump;
    devices::PulseOximeter oximeter;
    devices::Capnometer capnometer;
    std::optional<devices::BedsideMonitor> monitor;
    std::optional<SmartAlarm> smart;

    ice::DeviceRegistry registry;
    std::optional<ice::Supervisor> supervisor;
    std::optional<PcaInterlock> interlock;

    mcps::sim::RunningStats pain_stats;
    bool hook_fired = false;

    /// The 1 Hz ground-truth recorder's signals, resolved on its first
    /// tick (see TraceRecorder::signal).
    struct TruthSignals {
        mcps::sim::Signal* spo2 = nullptr;
        mcps::sim::Signal* resp_rate = nullptr;
        mcps::sim::Signal* etco2 = nullptr;
        mcps::sim::Signal* apneic = nullptr;
        mcps::sim::Signal* effect_site = nullptr;
        mcps::sim::Signal* delivering = nullptr;
    } truth;

    explicit Impl(PcaScenarioConfig c)
        : cfg{std::move(c)},
          sim{cfg.seed},
          bus{sim, cfg.channel},
          patient{cfg.patient},
          demand{make_demand(cfg), sim.rng("demand")},
          ctx{sim, bus, trace, cfg.events},
          pump{ctx, "pump1", patient, cfg.prescription},
          oximeter{ctx, "oxi1", patient, cfg.oximeter},
          capnometer{ctx, "cap1", patient, cfg.capnometer} {
        bus.set_event_log(cfg.events);
        if (cfg.with_monitor) monitor.emplace(ctx, "monitor1", cfg.monitor);
        if (cfg.with_smart_alarm) {
            smart.emplace(ctx, "smart1", cfg.smart_alarm);
        }
    }

    static physio::DemandParameters make_demand(const PcaScenarioConfig& c) {
        physio::DemandParameters d = c.demand;
        d.proxy_presses = (c.demand_mode == DemandMode::kProxy);
        return d;
    }
};

PcaScenario::PcaScenario(PcaScenarioConfig cfg)
    : impl_{std::make_unique<Impl>(std::move(cfg))} {
    auto& im = *impl_;
    const auto& c = im.cfg;

    if (auto* log = c.events) {
        log->emit(mcps::obs::EventKind::kScenarioStart, im.sim.now(), "pca",
                  c.interlock ? "closed-loop" : "open-loop",
                  static_cast<double>(c.seed));
    }

    // Heartbeats for supervisor liveness monitoring.
    im.pump.set_heartbeat_period(SimDuration::seconds(2));
    im.oximeter.set_heartbeat_period(SimDuration::seconds(2));
    im.capnometer.set_heartbeat_period(SimDuration::seconds(2));

    im.pump.start();
    im.oximeter.start();
    im.capnometer.start();
    if (im.monitor) im.monitor->start();
    if (im.smart) im.smart->start();

    im.registry.add(im.pump);
    im.registry.add(im.oximeter);
    im.registry.add(im.capnometer);

    if (c.interlock) {
        im.supervisor.emplace(im.ctx, "supervisor1", im.registry);
        im.supervisor->start();
        im.interlock.emplace(im.ctx, "pca_interlock", *c.interlock);
        const auto deploy = im.supervisor->deploy(*im.interlock);
        if (!deploy.ok) {
            throw std::runtime_error("PcaScenario: interlock deploy failed: " +
                                     deploy.error);
        }
    }

    // Physiology + demand + ground-truth tracing loop.
    im.sim.schedule_periodic(
        c.patient_step,
        [this] {
            auto& im2 = *impl_;
            const double dt = im2.cfg.patient_step.to_seconds();
            im2.patient.step(dt);

            // Patient (or proxy) presses the demand button.
            const double suppression = 1.0 - im2.patient.respiratory_drive();
            if (im2.demand.poll_press(dt, im2.patient.pk().effect_site(),
                                      suppression)) {
                im2.pump.press_button();
            }
            im2.pain_stats.add(
                im2.demand.pain(im2.patient.pk().effect_site()));
        },
        mcps::sim::EventPriority::kEarly);

    // 1 Hz ground-truth recorder (separate from sensor readings).
    im.sim.schedule_periodic(
        SimDuration::seconds(1),
        [this] {
            auto& im2 = *impl_;
            auto& t = im2.truth;
            if (t.spo2 == nullptr) {  // first tick: resolve the handles once
                t.spo2 = &im2.trace.signal("truth/spo2");
                t.resp_rate = &im2.trace.signal("truth/resp_rate");
                t.etco2 = &im2.trace.signal("truth/etco2");
                t.apneic = &im2.trace.signal("truth/apneic");
                t.effect_site = &im2.trace.signal("truth/effect_site");
                t.delivering = &im2.trace.signal("pump/delivering");
            }
            const SimTime now = im2.sim.now();
            t.spo2->record(now, im2.patient.spo2().as_percent());
            t.resp_rate->record(now, im2.patient.resp_rate().as_per_minute());
            t.etco2->record(now, im2.patient.etco2().as_mmhg());
            t.apneic->record(now, im2.patient.is_apneic() ? 1.0 : 0.0);
            t.effect_site->record(
                now, im2.patient.pk().effect_site().as_ng_per_ml());
            t.delivering->record(now, im2.pump.delivering() ? 1.0 : 0.0);
        },
        mcps::sim::EventPriority::kLate);

    // Optional mid-run hook (fault injection).
    if (im.cfg.mid_run_hook && !im.cfg.hook_at.is_never()) {
        im.sim.schedule_at(im.cfg.hook_at, [this] {
            impl_->hook_fired = true;
            impl_->cfg.mid_run_hook(*this);
        });
    }
}

PcaScenario::~PcaScenario() = default;

mcps::sim::Simulation& PcaScenario::simulation() { return impl_->sim; }
physio::Patient& PcaScenario::patient() { return impl_->patient; }
devices::GpcaPump& PcaScenario::pump() { return impl_->pump; }
devices::PulseOximeter& PcaScenario::oximeter() { return impl_->oximeter; }
devices::Capnometer& PcaScenario::capnometer() { return impl_->capnometer; }
net::Bus& PcaScenario::bus() { return impl_->bus; }
mcps::sim::TraceRecorder& PcaScenario::trace() { return impl_->trace; }
PcaInterlock* PcaScenario::interlock() {
    return impl_->interlock ? &*impl_->interlock : nullptr;
}
SmartAlarm* PcaScenario::smart_alarm() {
    return impl_->smart ? &*impl_->smart : nullptr;
}
devices::BedsideMonitor* PcaScenario::monitor() {
    return impl_->monitor ? &*impl_->monitor : nullptr;
}

PcaScenarioResult PcaScenario::run() {
    auto& im = *impl_;
    const SimTime end = SimTime::at(im.cfg.duration);
    im.sim.run_until(end);

    PcaScenarioResult r;
    const auto* spo2 = im.trace.find("truth/spo2");
    if (spo2 && !spo2->empty()) {
        r.min_spo2 = spo2->stats().min();
        r.time_spo2_below_90_s =
            spo2->time_below(SimTime::origin(), end, 90.0).to_seconds();
        r.time_spo2_below_85_s =
            spo2->time_below(SimTime::origin(), end, 85.0).to_seconds();
        r.severe_hypoxemia = r.min_spo2 < 85.0;
        if (auto onset = spo2->first_time_where(
                SimTime::origin(), [](double v) { return v < 90.0; })) {
            r.hypoxia_onset_s = onset->to_seconds();
            // Detection latency: onset -> first instant the pump is
            // observed not delivering afterwards.
            if (const auto* deliv = im.trace.find("pump/delivering")) {
                if (auto stopped = deliv->first_time_where(
                        *onset, [](double v) { return v < 0.5; })) {
                    r.detection_latency_s =
                        (*stopped - *onset).to_seconds();
                }
            }
        }
    }
    if (const auto* apn = im.trace.find("truth/apneic")) {
        r.time_apneic_s =
            apn->time_above(SimTime::origin(), end, 0.5).to_seconds();
    }

    r.mean_pain = im.pain_stats.mean();
    r.total_drug_mg = im.pump.stats().total_delivered.as_mg();
    r.pump = im.pump.stats();
    if (im.interlock) r.interlock = im.interlock->stats();
    if (im.monitor) r.monitor_alarm_count = im.monitor->alarms().size();
    if (im.smart) {
        r.smart_alarm_count = im.smart->alarms().size();
        for (const auto& a : im.smart->alarms()) {
            if (a.severity == AlarmSeverity::kCritical) {
                ++r.smart_critical_count;
            }
        }
    }
    r.events_dispatched = im.sim.events_dispatched();
    if (auto* log = im.cfg.events) {
        log->emit(mcps::obs::EventKind::kScenarioEnd, im.sim.now(), "pca",
                  r.severe_hypoxemia ? "severe-hypoxemia" : "ok",
                  static_cast<double>(r.events_dispatched));
    }
    return r;
}

PcaScenarioResult run_pca_scenario(const PcaScenarioConfig& cfg) {
    PcaScenario scenario{cfg};
    return scenario.run();
}

}  // namespace mcps::core
