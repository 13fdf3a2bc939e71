#include "pca_scenario.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "ice/ice.hpp"
#include "sim/hash.hpp"

namespace mcps::core {

using mcps::sim::SimDuration;
using mcps::sim::SimTime;

namespace {
/// The ground-truth recorder's sample period.
constexpr SimDuration kTruthPeriod = SimDuration::seconds(1);
}  // namespace

struct PcaScenario::Impl {
    PcaScenarioConfig cfg;

    mcps::sim::Simulation sim;
    mcps::sim::TraceRecorder trace;
    /// Records the run when the caller gives no log.
    mcps::obs::EventLog own_events;
    mcps::obs::EventLog& events;
    /// events' size before this run: a shared log holds earlier runs.
    std::size_t first_event;
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
    /// tick (see TraceRecorder::signal) and sized for the whole run.
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
          events{cfg.events != nullptr ? *cfg.events : own_events},
          first_event{events.size()},
          bus{sim, cfg.channel},
          patient{cfg.patient},
          demand{make_demand(cfg), sim.rng("demand")},
          ctx{sim, bus, trace, events},
          pump{ctx, "pump1", patient, cfg.prescription},
          oximeter{ctx, "oxi1", patient, cfg.oximeter},
          capnometer{ctx, "cap1", patient, cfg.capnometer} {
        bus.set_event_log(cfg.events);
        trace.set_horizon(cfg.duration);
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

    im.events.emit(mcps::obs::EventKind::kScenarioStart, im.sim.now(), "pca",
                   c.interlock ? "closed-loop" : "open-loop",
                   static_cast<double>(c.seed));

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
        kTruthPeriod,
        [this] {
            auto& im2 = *impl_;
            auto& t = im2.truth;
            if (t.spo2 == nullptr) {  // first tick: resolve the handles once
                auto& tr = im2.trace;
                t.spo2 = &tr.signal("truth/spo2", kTruthPeriod);
                t.resp_rate = &tr.signal("truth/resp_rate", kTruthPeriod);
                t.etco2 = &tr.signal("truth/etco2", kTruthPeriod);
                t.apneic = &tr.signal("truth/apneic", kTruthPeriod);
                t.effect_site = &tr.signal("truth/effect_site", kTruthPeriod);
                t.delivering = &tr.signal("pump/delivering", kTruthPeriod);
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
mcps::obs::EventLog& PcaScenario::events() { return impl_->events; }
std::size_t PcaScenario::first_event() const { return impl_->first_event; }

std::uint64_t PcaScenario::fingerprint() const {
    using mcps::sim::mix;
    using mcps::sim::mix_string;
    std::uint64_t h = mcps::sim::kFnvOffset;
    const auto& trace = impl_->trace;
    for (const auto& name : trace.signal_names()) {
        h = mix_string(h, name);
        for (const auto& s : trace.find(name)->samples()) {
            h = mix(h, static_cast<std::uint64_t>(s.time.ticks()));
            h = mix(h, std::bit_cast<std::uint64_t>(s.value));
        }
    }
    const auto& log = impl_->events;
    const auto& events = log.events();
    for (std::size_t i = impl_->first_event; i < events.size(); ++i) {
        const mcps::obs::Event& e = events[i];
        if (mcps::obs::is_bus_kind(e.kind)) continue;
        h = mix(h, static_cast<std::uint64_t>(e.kind));
        h = mix(h, static_cast<std::uint64_t>(e.time.ticks()));
        h = mix_string(h, log.symbol(e.source));
        h = mix_string(h, log.symbol(e.detail));
        h = mix(h, std::bit_cast<std::uint64_t>(e.value));
    }
    return h;
}

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
    im.events.emit(mcps::obs::EventKind::kScenarioEnd, im.sim.now(), "pca",
                   r.severe_hypoxemia ? "severe-hypoxemia" : "ok",
                   static_cast<double>(r.events_dispatched));
    return r;
}

PcaScenarioResult run_pca_scenario(const PcaScenarioConfig& cfg) {
    PcaScenario scenario{cfg};
    return scenario.run();
}

}  // namespace mcps::core
