/// \file bench_e8_fault_injection.cpp
/// \brief Experiment E8 — safety must hold under sensor and device
/// faults (the paper's "high-confidence under real-world conditions"
/// challenge). Faults are injected mid-crisis; the fail-safe vs
/// fail-operational interlock policies are compared.
///
/// Scenario: opioid-sensitive patient, proxy pressing, dual-sensor
/// interlock. At t = 10 min (before the first interlock trigger, while
/// the overdose is developing) one of the following faults strikes:
///
///   none              : control run
///   oxi-dropout       : pulse oximeter probe-off for 10 minutes
///   cap-dropout       : capnometer cannula displaced for 10 minutes
///   both-dropout      : both sensors silent for 10 minutes
///   oxi-crash         : oximeter crashes outright (no recovery)
///   both-crash        : both sensors crash outright (worst case)
///   artifact-storm    : oximeter reads artifacts for 10 minutes
///   pump-occlusion    : pump raises a critical occlusion alarm
///
/// Reported: severe-hypoxemia rate, mean min SpO2, staleness stops, drug
/// delivered. The fail-safe policy must keep every fault safe (possibly
/// at a therapy cost); fail-operational exposes the blind-window risk.

#include <iostream>

#include "bench_io.hpp"
#include "core/core.hpp"
#include "scenario/scenario.hpp"
#include "sim/table.hpp"

using namespace mcps;
using namespace mcps::sim::literals;

namespace {

// Full-size by default; `--quick` shrinks both (JSON smoke test).
int g_seeds = 6;
sim::SimDuration g_duration = 3_h;

using Hook = std::function<void(core::PcaScenario&)>;

struct Fault {
    const char* label;
    Hook hook;  ///< may be null (control)
};

std::vector<Fault> faults() {
    return {
        {"none", nullptr},
        {"oxi-dropout",
         [](core::PcaScenario& sc) { sc.oximeter().force_dropout(10_min); }},
        {"cap-dropout",
         [](core::PcaScenario& sc) { sc.capnometer().force_dropout(10_min); }},
        {"both-dropout",
         [](core::PcaScenario& sc) {
             sc.oximeter().force_dropout(10_min);
             sc.capnometer().force_dropout(10_min);
         }},
        {"oxi-crash", [](core::PcaScenario& sc) { sc.oximeter().crash(); }},
        {"both-crash",
         [](core::PcaScenario& sc) {
             sc.oximeter().crash();
             sc.capnometer().crash();
         }},
        {"artifact-storm",
         [](core::PcaScenario& sc) { sc.oximeter().force_artifact(10_min); }},
        {"pump-occlusion",
         [](core::PcaScenario& sc) {
             sc.pump().inject_fault(devices::PumpAlarm::kOcclusion);
         }},
    };
}

}  // namespace

int main(int argc, char** argv) {
    mcps::benchio::JsonReporter json{argc, argv, "e8_fault_injection"};
    json.set_seed(7000);
    if (mcps::benchio::quick_mode(argc, argv)) {
        g_seeds = 2;
        g_duration = 30_min;
    }
    std::cout << "E8: fault injection during a developing overdose\n("
              << g_seeds << " seeds per cell, fault at t = 10 min)\n\n";

    for (const auto policy : {core::DataLossPolicy::kFailSafe,
                              core::DataLossPolicy::kFailOperational}) {
        sim::Table t({"fault", "severe_rate", "mean_min_spo2",
                      "staleness_stops", "drug_mg", "stops"});
        // The registry spec fixes the envelope; the mid-run fault hook
        // is the swept part and stays on the resolved config.
        scenario::ScenarioSpec spec;
        spec.name = "pca";
        spec.set("patient", "opioid-sensitive");
        spec.set("interlock", "dual");
        spec.set("policy", policy == core::DataLossPolicy::kFailOperational
                               ? "fail-operational"
                               : "fail-safe");
        for (const auto& fault : faults()) {
            int severe = 0;
            sim::RunningStats min_spo2, dls, drug, stops;
            for (int s = 0; s < g_seeds; ++s) {
                auto cfg = scenario::make_pca_config(spec);
                cfg.seed = 7000 + static_cast<std::uint64_t>(s);
                cfg.duration = g_duration;
                if (fault.hook) {
                    cfg.hook_at = sim::SimTime::origin() + 10_min;
                    cfg.mid_run_hook = fault.hook;
                }
                const auto r = core::run_pca_scenario(cfg);
                severe += r.severe_hypoxemia ? 1 : 0;
                min_spo2.add(r.min_spo2);
                dls.add(static_cast<double>(r.interlock.data_loss_stops));
                drug.add(r.total_drug_mg);
                stops.add(static_cast<double>(r.interlock.stops_issued));
            }
            t.row()
                .cell(fault.label)
                .cell(static_cast<double>(severe) / g_seeds, 2)
                .cell(min_spo2.mean(), 1)
                .cell(dls.mean(), 1)
                .cell(drug.mean(), 2)
                .cell(stops.mean(), 1);
            const std::string key = std::string{core::to_string(policy)} +
                                    "." + fault.label;
            json.metric(key + ".severe_rate",
                        static_cast<double>(severe) / g_seeds, "ratio");
            json.metric(key + ".drug_mg", drug.mean(), "mg");
        }
        t.print(std::cout, std::string{"E8: policy = "} +
                               std::string{core::to_string(policy)});
        std::cout << '\n';
    }

    std::cout
        << "Expected shape: under fail-safe every fault stays severe-free\n"
           "(sensor silence stops the pump preemptively; therapy dips\n"
           "instead); under fail-operational the dropout/crash faults open a\n"
           "blind window in which the overdose can progress unchecked —\n"
           "the quantitative argument for the fail-safe default.\n";
    return json.write() ? 0 : 1;
}
