/// \file bench_e2_network.cpp
/// \brief Experiment E2 — how network quality limits closed-loop safety
/// (the paper's "networking introduces failure concerns" thread).
///
/// Two sweeps on an opioid-sensitive patient receiving proxy boluses
/// with the dual-sensor interlock engaged:
///
///   E2a latency sweep (loss 0): added end-to-end latency directly
///       stretches the interlock's onset-to-stop latency.
///   E2b loss sweep (latency 50 ms): under fail-OPERATIONAL, loss delays
///       detection and lengthens hypoxia; under FAIL-SAFE the same loss
///       instead starves therapy (preemptive staleness stops) — the
///       policy ablation called out in DESIGN.md.

#include <iostream>

#include "bench_io.hpp"
#include "core/core.hpp"
#include "scenario/scenario.hpp"
#include "sim/table.hpp"

using namespace mcps;
using namespace mcps::sim::literals;

namespace {

// Full-size by default; `--quick` shrinks both (JSON smoke test).
int g_seeds_per_cell = 6;
sim::SimDuration g_duration = 4_h;

struct CellResult {
    double stop_latency_ms = 0;  ///< mean interlock onset->ack latency
    double min_below90 = 0;      ///< mean minutes of true SpO2 < 90
    double severe_rate = 0;
    double drug_mg = 0;
    double dataloss_stops = 0;
};

CellResult run_cell(sim::SimDuration latency, double loss,
                    core::DataLossPolicy policy) {
    // Categorical knobs ride the registry spec; the swept channel
    // quantities stay as exact SimDurations/doubles on the resolved
    // config (jitter tracks the swept latency, not a spec constant).
    scenario::ScenarioSpec spec;
    spec.name = "pca";
    spec.set("patient", "opioid-sensitive");
    spec.set("interlock", "dual");
    spec.set("policy", policy == core::DataLossPolicy::kFailOperational
                           ? "fail-operational"
                           : "fail-safe");

    sim::RunningStats lat, below, drug, dls;
    int severe = 0;
    for (int s = 0; s < g_seeds_per_cell; ++s) {
        auto cfg = scenario::make_pca_config(spec);
        cfg.seed = 9000 + static_cast<std::uint64_t>(s);
        cfg.duration = g_duration;
        cfg.channel.base_latency = latency;
        cfg.channel.jitter_sd = latency * 0.1;
        cfg.channel.loss_probability = loss;
        const auto r = core::run_pca_scenario(cfg);
        if (r.interlock.last_stop_latency_ms) {
            lat.add(*r.interlock.last_stop_latency_ms);
        }
        below.add(r.time_spo2_below_90_s / 60.0);
        severe += r.severe_hypoxemia ? 1 : 0;
        drug.add(r.total_drug_mg);
        dls.add(static_cast<double>(r.interlock.data_loss_stops));
    }
    CellResult c;
    c.stop_latency_ms = lat.mean();
    c.min_below90 = below.mean();
    c.severe_rate = static_cast<double>(severe) / g_seeds_per_cell;
    c.drug_mg = drug.mean();
    c.dataloss_stops = dls.mean();
    return c;
}

}  // namespace

int main(int argc, char** argv) {
    mcps::benchio::JsonReporter json{argc, argv, "e2_network"};
    json.set_seed(9000);
    if (mcps::benchio::quick_mode(argc, argv)) {
        g_seeds_per_cell = 2;
        g_duration = 30_min;
    }
    std::cout << "E2: network quality vs closed-loop PCA safety\n"
              << "(opioid-sensitive patient, proxy demand, dual-sensor "
                 "interlock, "
              << g_seeds_per_cell << " seeds per cell)\n\n";

    {
        sim::Table t({"latency", "stop_latency_ms", "min_below90",
                      "severe_rate", "drug_mg"});
        for (const auto latency : {0_ms, 250_ms, 1000_ms, 2000_ms, 5000_ms}) {
            const auto c = run_cell(latency, 0.0,
                                    core::DataLossPolicy::kFailOperational);
            t.row()
                .cell(latency.to_string())
                .cell(c.stop_latency_ms, 0)
                .cell(c.min_below90, 2)
                .cell(c.severe_rate, 2)
                .cell(c.drug_mg, 2);
            const std::string prefix = "latency." + latency.to_string();
            json.metric(prefix + ".stop_latency_ms", c.stop_latency_ms, "ms");
            json.metric(prefix + ".severe_rate", c.severe_rate, "ratio");
        }
        t.print(std::cout, "E2a: latency sweep (loss = 0, fail-operational)");
        std::cout << '\n';
    }

    for (const auto policy : {core::DataLossPolicy::kFailOperational,
                              core::DataLossPolicy::kFailSafe}) {
        sim::Table t({"loss", "stop_latency_ms", "min_below90", "severe_rate",
                      "drug_mg", "staleness_stops"});
        for (const double loss : {0.0, 0.05, 0.10, 0.20, 0.40}) {
            const auto c = run_cell(50_ms, loss, policy);
            t.row()
                .cell(loss, 2)
                .cell(c.stop_latency_ms, 0)
                .cell(c.min_below90, 2)
                .cell(c.severe_rate, 2)
                .cell(c.drug_mg, 2)
                .cell(c.dataloss_stops, 1);
            const std::string prefix =
                std::string{"loss."} + std::string{core::to_string(policy)} +
                "." + std::to_string(static_cast<int>(loss * 100)) + "pct";
            json.metric(prefix + ".severe_rate", c.severe_rate, "ratio");
            json.metric(prefix + ".drug_mg", c.drug_mg, "mg");
            json.metric(prefix + ".staleness_stops", c.dataloss_stops,
                        "stops");
        }
        t.print(std::cout, std::string{"E2b: loss sweep (latency = 50 ms, "} +
                               std::string{core::to_string(policy)} + ")");
        std::cout << '\n';
    }

    std::cout
        << "Expected shape: stop latency grows ~linearly with added network\n"
           "latency; under fail-operational, loss lengthens hypoxia; under\n"
           "fail-safe, the same loss leaves SpO2 untouched but starves\n"
           "therapy (drug_mg falls, staleness stops rise) — availability is\n"
           "traded, never safety.\n";
    return json.write() ? 0 : 1;
}
