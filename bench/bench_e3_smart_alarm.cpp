/// \file bench_e3_smart_alarm.cpp
/// \brief Experiment E3 — context-aware smart alarms cut false alarms
/// without missing true events (the paper's "decreased false alarms"
/// claim for intelligent MCPS).
///
/// E3a: a STABLE monitored patient with increasing motion-artifact rates
///      on the pulse oximeter for 6 simulated hours. Every alarm is a
///      false alarm; we count alarms/hour for the classic per-metric
///      threshold monitor vs. the fused smart alarm.
/// E3b: an opioid-sensitive patient under proxy pressing develops a TRUE
///      overdose (open loop, alarms only). Detection = any alarm fired
///      within the window from 3 min before to 10 min after the first
///      true SpO2 < 90 crossing; we also report detection latency.

#include <algorithm>
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
sim::SimDuration g_duration = 6_h;

auto base_cfg(bool overdose, std::uint64_t seed, double artifact_prob) {
    // The registry's alarm-only shift: typical adult, no interlock,
    // monitor + smart alarm on. The overdose variant swaps in the E3b
    // patient/demand knobs; the swept artifact probability is set on
    // the resolved config exactly (the preset floor doesn't apply).
    scenario::ScenarioSpec spec;
    spec.name = "smart-alarm";
    if (overdose) {
        spec.set("patient", "opioid-sensitive");
        spec.set("demand", "proxy");
    }
    auto cfg = scenario::make_pca_config(spec);
    cfg.seed = seed;
    cfg.duration = g_duration;
    cfg.oximeter.artifact_probability = artifact_prob;
    return cfg;
}

}  // namespace

int main(int argc, char** argv) {
    mcps::benchio::JsonReporter json{argc, argv, "e3_smart_alarm"};
    json.set_seed(100);
    if (mcps::benchio::quick_mode(argc, argv)) {
        g_seeds = 2;
        g_duration = 1_h;
    }
    std::cout << "E3: threshold alarms vs fused smart alarm\n("
              << g_seeds << " seeds per cell, " << g_duration.to_minutes()
              << " simulated minutes each)\n\n";

    // ---- E3a: false alarms on a stable patient ----------------------
    {
        sim::Table t({"artifact_per_h", "threshold_FA_per_h",
                      "smart_FA_per_h", "smart_critical_per_h"});
        for (const double prob : {0.0, 0.001, 0.003, 0.006, 0.012}) {
            sim::RunningStats mon, smart, crit;
            const double hours = g_duration.to_minutes() / 60.0;
            for (int s = 0; s < g_seeds; ++s) {
                const auto r = core::run_pca_scenario(
                    base_cfg(false, 100 + static_cast<std::uint64_t>(s), prob));
                mon.add(static_cast<double>(r.monitor_alarm_count) / hours);
                smart.add(static_cast<double>(r.smart_alarm_count) / hours);
                crit.add(static_cast<double>(r.smart_critical_count) / hours);
            }
            // Artifact bursts begin per 1 s sample => expected rate/h:
            t.row()
                .cell(prob * 3600.0, 1)
                .cell(mon.mean(), 2)
                .cell(smart.mean(), 2)
                .cell(crit.mean(), 2);
            const std::string prefix =
                "fa.artifact_" +
                std::to_string(static_cast<int>(prob * 10000.0)) + "e-4";
            json.metric(prefix + ".threshold_fa_per_h", mon.mean(),
                        "alarms/h");
            json.metric(prefix + ".smart_fa_per_h", smart.mean(), "alarms/h");
        }
        t.print(std::cout,
                "E3a: false alarms per hour, stable patient with motion "
                "artifacts");
        std::cout << '\n';
    }

    // ---- E3b: true-event detection -----------------------------------
    {
        sim::Table t({"detector", "detected", "missed", "mean_latency_s"});
        int mon_detected = 0, smart_detected = 0, events = 0;
        sim::RunningStats mon_latency, smart_latency;
        for (int s = 0; s < g_seeds; ++s) {
            auto cfg = base_cfg(true, 200 + static_cast<std::uint64_t>(s),
                                0.003);
            core::PcaScenario scenario{cfg};
            const auto r = scenario.run();
            if (!r.hypoxia_onset_s) continue;  // no true event this seed
            ++events;
            const auto onset =
                sim::SimTime::origin() +
                sim::SimDuration::from_seconds(*r.hypoxia_onset_s);
            const auto win_lo = onset - 3_min;
            const auto win_hi = onset + 10_min;

            // Threshold monitor detection.
            bool mon_hit = false;
            for (const auto& a : scenario.monitor()->alarms()) {
                if (a.at >= win_lo && a.at <= win_hi) {
                    mon_hit = true;
                    mon_latency.add((a.at - onset).to_seconds());
                    break;
                }
            }
            mon_detected += mon_hit ? 1 : 0;

            // Smart alarm detection (warning or critical).
            bool smart_hit = false;
            for (const auto& a : scenario.smart_alarm()->alarms()) {
                if (a.at >= win_lo && a.at <= win_hi) {
                    smart_hit = true;
                    smart_latency.add((a.at - onset).to_seconds());
                    break;
                }
            }
            smart_detected += smart_hit ? 1 : 0;
        }
        t.row()
            .cell("threshold-monitor")
            .cell(std::int64_t{mon_detected})
            .cell(std::int64_t{events - mon_detected})
            .cell(mon_latency.empty() ? 0.0 : mon_latency.mean(), 1);
        t.row()
            .cell("smart-alarm")
            .cell(std::int64_t{smart_detected})
            .cell(std::int64_t{events - smart_detected})
            .cell(smart_latency.empty() ? 0.0 : smart_latency.mean(), 1);
        t.print(std::cout, "E3b: true overdose detection (" +
                               std::to_string(events) + " events)");
        std::cout << '\n';
        json.metric("detect.events", static_cast<double>(events), "events");
        json.metric("detect.threshold_detected",
                    static_cast<double>(mon_detected), "events");
        json.metric("detect.smart_detected",
                    static_cast<double>(smart_detected), "events");
        json.metric("detect.threshold_mean_latency_s",
                    mon_latency.empty() ? 0.0 : mon_latency.mean(), "s");
        json.metric("detect.smart_mean_latency_s",
                    smart_latency.empty() ? 0.0 : smart_latency.mean(), "s");
    }

    std::cout
        << "Expected shape: threshold false alarms grow ~linearly with the\n"
           "artifact rate while the fused engine stays near zero (it needs\n"
           "corroboration). Both detectors catch every true overdose. The\n"
           "classic sensitivity/specificity trade is visible in the\n"
           "latencies: the per-metric thresholds ring at the first noisy\n"
           "sample (earliest, but that hair trigger IS the false-alarm\n"
           "flood of E3a); the fused alarm confirms via corroboration +\n"
           "persistence and still fires well before the SpO2-90 crossing\n"
           "(negative latency), via capnometry.\n";
    return json.write() ? 0 : 1;
}
