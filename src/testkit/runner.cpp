#include "runner.hpp"

#include <exception>
#include <string>

#include "hospital/hospital_engine.hpp"
#include "scenario/presets.hpp"
#include "scenario/registry.hpp"
#include "sim/hash.hpp"

namespace mcps::testkit {

using mcps::sim::SimDuration;

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
    out.fingerprint = scenario.fingerprint();
    return out;
}

XrayRunOutcome run_instrumented_xray(const core::XrayScenarioConfig& cfg,
                                     InvariantTolerances tol) {
    XrayRunOutcome out;
    out.result = core::run_xray_scenario(cfg);
    out.violations = InvariantChecker::check_xray(cfg, out.result, tol);
    out.fingerprint = core::fingerprint(out.result);
    return out;
}

HospitalRunOutcome check_hospital(const scenario::ScenarioSpec& spec,
                                  bool hazard) {
    HospitalRunOutcome out;
    // The engine report, not the registry's artifacts, so the violation
    // time is at hand; make_hospital_config is the resolution the
    // registry's hospital runner applies.
    hospital::HospitalReport rep;
    try {
        rep = hospital::HospitalEngine{scenario::make_hospital_config(spec)}
                  .run();
    } catch (const std::exception& e) {
        out.violations.push_back({"resolves-and-runs", 0.0, e.what()});
        return out;
    }
    out.fingerprint = rep.fingerprint;

    // Determinism + jobs invariance: the identical spec with jobs=1 must
    // reproduce the fingerprint and every outcome metric bit-exactly
    // (wall-clock never enters the outcome).
    scenario::ScenarioSpec serial = spec;
    serial.set("jobs", "1");
    const hospital::HospitalReport again =
        hospital::HospitalEngine{scenario::make_hospital_config(serial)}.run();
    if (again.fingerprint != rep.fingerprint ||
        scenario::hospital_outcome(again) != scenario::hospital_outcome(rep)) {
        out.violations.push_back(
            {"jobs-invariant-report", 0.0,
             "jobs=" + *spec.find("jobs") + " report differs from jobs=1 "
             "(fingerprints " + sim::hex64(rep.fingerprint) + " vs " +
                 sim::hex64(again.fingerprint) + ")"});
        return out;
    }

    if (rep.deadline_violations > 0) {
        const std::string n = std::to_string(rep.deadline_violations);
        const double at_s = rep.first_deadline_violation_s;
        out.violations.push_back(
            hazard ? Violation{std::string{kHospitalHazard}, at_s,
                               n + " deadline violations (interlock off, "
                                   "storm)"}
                   : Violation{"deadline-safe-envelope", at_s,
                               n + " deadline violations inside the "
                                   "claimed-safe envelope"});
    }
    return out;
}

}  // namespace mcps::testkit
