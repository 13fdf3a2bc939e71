/// \file bench_e9_alarm_fatigue.cpp
/// \brief Experiment E9 (ablation) — alarm quality decides patient
/// outcome through the human in the loop.
///
/// E3 counted alarms; this experiment counts *harm*. An opioid-sensitive
/// patient under proxy pressing (open loop, no interlock — nursing
/// response is the only protection) is watched by a nurse summoned by
/// either the classic threshold monitor or the fused smart alarm, while
/// the pulse oximeter suffers motion artifacts. The threshold monitor's
/// false-alarm flood fatigues the nurse (response-time multiplier), so
/// by the time the true overdose rings, the rescue (naloxone-like
/// antagonist) arrives late.
///
/// Reported per (alarm source, artifact rate): alarms heard/h, mean
/// fatigue factor at dispatch, mean response time, rescues, severe-
/// hypoxemia rate, mean min SpO2.

#include <iostream>

#include "bench_io.hpp"
#include "core/core.hpp"
#include "core/nurse_response.hpp"
#include "scenario/scenario.hpp"
#include "sim/table.hpp"

using namespace mcps;
using namespace mcps::sim::literals;

namespace {

// Full-size by default; `--quick` shrinks both (JSON smoke test).
int g_seeds = 8;
sim::SimDuration g_duration = 6_h;

struct CellResult {
    double alarms_per_h = 0;
    double ignored = 0;
    double mean_fatigue = 0;
    double mean_response_s = 0;
    double rescues = 0;
    double false_trips = 0;
    double severe_rate = 0;
    double mean_min_spo2 = 0;
};

CellResult run_cell(bool use_smart_alarm, double artifact_prob) {
    sim::RunningStats alarms, fatigue, response, rescues, min_spo2, false_trips,
        ignored;
    // The alarm-only shift from the registry with the E9 overdose
    // patient swapped in; the nurse is wired onto the live scenario
    // below, which no flat knob can express.
    scenario::ScenarioSpec spec;
    spec.name = "smart-alarm";
    spec.set("patient", "opioid-sensitive");
    spec.set("demand", "proxy");

    int severe = 0;
    for (int s = 0; s < g_seeds; ++s) {
        auto cfg = scenario::make_pca_config(spec);
        cfg.seed = 5000 + static_cast<std::uint64_t>(s);
        cfg.duration = g_duration;
        cfg.oximeter.artifact_probability = artifact_prob;

        core::PcaScenario scenario{cfg};
        core::NurseConfig ncfg;
        ncfg.alarm_topic =
            use_smart_alarm ? "alarm/smart1" : "alarm/monitor1";
        devices::DeviceContext ctx{scenario.simulation(), scenario.bus(),
                                   scenario.trace(), scenario.events()};
        core::NurseResponder nurse{ctx, "nurse1", scenario.patient(), ncfg};
        nurse.start();

        const auto r = scenario.run();
        const auto& ns = nurse.stats();
        alarms.add(static_cast<double>(ns.alarms_heard) /
                   (g_duration.to_minutes() / 60.0));
        // The outcome-relevant fatigue is the WORST factor a dispatch
        // suffered (the one racing the developing overdose).
        double worst = 1.0;
        for (double v : ns.fatigue_factors) worst = std::max(worst, v);
        fatigue.add(worst);
        response.add(ns.response_times_s.empty()
                         ? 0.0
                         : *std::max_element(ns.response_times_s.begin(),
                                             ns.response_times_s.end()));
        rescues.add(static_cast<double>(ns.rescues));
        false_trips.add(static_cast<double>(ns.false_trips));
        ignored.add(static_cast<double>(ns.ignored));
        severe += r.severe_hypoxemia ? 1 : 0;
        min_spo2.add(r.min_spo2);
    }
    CellResult c;
    c.alarms_per_h = alarms.mean();
    c.ignored = ignored.mean();
    c.mean_fatigue = fatigue.mean();
    c.mean_response_s = response.mean();
    c.rescues = rescues.mean();
    c.false_trips = false_trips.mean();
    c.severe_rate = static_cast<double>(severe) / g_seeds;
    c.mean_min_spo2 = min_spo2.mean();
    return c;
}

}  // namespace

int main(int argc, char** argv) {
    mcps::benchio::JsonReporter json{argc, argv, "e9_alarm_fatigue"};
    json.set_seed(5000);
    if (mcps::benchio::quick_mode(argc, argv)) {
        g_seeds = 2;
        g_duration = 45_min;
    }
    std::cout << "E9 (ablation): alarm quality -> nurse fatigue -> outcome\n("
              << g_seeds << " seeds per cell, " << g_duration.to_minutes()
              << " min, sensitive patient, proxy demand, NO "
                 "interlock)\n\n";

    sim::Table t({"alarm_source", "artifacts_per_h", "alarms_per_h",
                  "ignored", "worst_fatigue_x", "worst_response_s", "false_trips",
                  "rescues", "severe_rate", "min_spo2"});
    for (const double prob : {0.0, 0.003, 0.012}) {
        for (const bool smart : {false, true}) {
            const auto c = run_cell(smart, prob);
            t.row()
                .cell(smart ? "smart-alarm" : "threshold-monitor")
                .cell(prob * 3600.0, 1)
                .cell(c.alarms_per_h, 1)
                .cell(c.ignored, 1)
                .cell(c.mean_fatigue, 2)
                .cell(c.mean_response_s, 0)
                .cell(c.false_trips, 1)
                .cell(c.rescues, 1)
                .cell(c.severe_rate, 2)
                .cell(c.mean_min_spo2, 1);
            const std::string key =
                std::string{smart ? "smart" : "threshold"} + ".artifact_" +
                std::to_string(static_cast<int>(prob * 10000.0)) + "e-4";
            json.metric(key + ".alarms_per_h", c.alarms_per_h, "alarms/h");
            json.metric(key + ".severe_rate", c.severe_rate, "ratio");
        }
    }
    t.print(std::cout, "E9: patient outcome by alarm source");
    std::cout
        << "\nExpected shape: with a quiet sensor both sources protect the\n"
           "patient equally; as artifacts grow, the threshold monitor's\n"
           "flood inflates the fatigue factor and response time, rescues\n"
           "arrive later, and severe-hypoxemia rate / min SpO2 worsen,\n"
           "while the smart-alarm nurse stays fast — alarm specificity is\n"
           "a *patient-outcome* property, not a comfort feature.\n";
    json.write();
    return 0;
}
