#include "runner.hpp"

#include <bit>

#include "sim/hash.hpp"

namespace mcps::testkit {

using mcps::sim::SimDuration;
using mcps::sim::kFnvOffset;
using mcps::sim::mix;
using mcps::sim::mix_string;

std::uint64_t trace_fingerprint(const mcps::sim::TraceRecorder& trace,
                                const mcps::obs::EventLog& log,
                                std::size_t first_event) {
    std::uint64_t h = kFnvOffset;
    for (const auto& name : trace.signal_names()) {
        const auto* sig = trace.find(name);
        h = mix_string(h, name);
        for (const auto& s : sig->samples()) {
            h = mix(h, static_cast<std::uint64_t>(s.time.ticks()));
            h = mix(h, std::bit_cast<std::uint64_t>(s.value));
        }
    }
    const auto& events = log.events();
    for (std::size_t i = first_event; i < events.size(); ++i) {
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

PcaRunOutcome run_instrumented_pca(const core::PcaScenarioConfig& cfg,
                                   const FaultPlan& faults,
                                   const InvariantChecker& checker) {
    PcaRunOutcome out;
    core::PcaScenario scenario{cfg};

    // Ideal-link alarm probe: decides "was this alarm ever delivered"
    // without riding the lossy links under test.
    std::uint64_t probe_smart = 0, probe_monitor = 0;
    scenario.bus().set_endpoint_channel("testkit.alarm_probe",
                                        net::ChannelParameters::ideal());
    scenario.bus().subscribe("testkit.alarm_probe", "alarm/*",
                             [&](const net::Message& m) {
                                 if (m.sender == "smart1") ++probe_smart;
                                 if (m.sender == "monitor1") ++probe_monitor;
                             });

    // 1 Hz ground-truth recorders for invariants the core trace doesn't
    // already cover.
    scenario.simulation().schedule_periodic(
        SimDuration::seconds(1),
        [&scenario] {
            const auto now = scenario.simulation().now();
            auto& tr = scenario.trace();
            tr.record("testkit/pump_hourly_mg", now,
                      scenario.pump().delivered_last_hour().as_mg());
            tr.record("testkit/pump_reservoir_mg", now,
                      scenario.pump().reservoir_remaining().as_mg());
            tr.record("testkit/oxi_dropout", now,
                      scenario.oximeter().in_dropout() ? 1.0 : 0.0);
        },
        mcps::sim::EventPriority::kLate);

    FaultInjector injector{scenario.simulation(), scenario.bus(),
                           scenario.events()};
    injector.attach_oximeter(scenario.oximeter());
    injector.attach_capnometer(scenario.capnometer());
    injector.arm(faults);

    out.result = scenario.run();
    out.probe_smart_alarms = probe_smart;
    out.probe_monitor_alarms = probe_monitor;

    const PcaCheckContext ctx{cfg, out.result, scenario.trace(), probe_smart,
                              probe_monitor};
    out.violations = checker.check_pca(ctx);
    out.fingerprint = trace_fingerprint(scenario.trace(), scenario.events(),
                                        scenario.first_event());
    return out;
}

std::uint64_t xray_result_fingerprint(const core::XrayScenarioResult& r) {
    std::uint64_t h = kFnvOffset;
    h = mix(h, r.procedures);
    h = mix(h, r.completed);
    h = mix(h, r.sharp_images);
    h = mix(h, r.total_retries);
    h = mix(h, r.safety_auto_resumes);
    h = mix(h, std::bit_cast<std::uint64_t>(r.mean_apnea_s));
    h = mix(h, std::bit_cast<std::uint64_t>(r.max_apnea_s));
    h = mix(h, std::bit_cast<std::uint64_t>(r.min_spo2));
    return h;
}

XrayRunOutcome run_instrumented_xray(const core::XrayScenarioConfig& cfg,
                                     InvariantTolerances tol) {
    XrayRunOutcome out;
    out.result = core::run_xray_scenario(cfg);
    out.violations = InvariantChecker::check_xray(cfg, out.result, tol);
    out.fingerprint = xray_result_fingerprint(out.result);
    return out;
}

}  // namespace mcps::testkit
