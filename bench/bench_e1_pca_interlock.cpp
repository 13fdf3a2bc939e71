/// \file bench_e1_pca_interlock.cpp
/// \brief Experiment E1 — the paper's flagship claim: a closed-loop PCA
/// safety interlock prevents opioid overdose harm that open-loop PCA
/// cannot, across patient variability, without destroying analgesia.
///
/// Design: for each patient archetype, sample a small population with
/// log-normal biological variability, run every patient for 4 simulated
/// hours under PCA-by-proxy pressing (the canonical defeat of PCA's
/// intrinsic safety), once per configuration:
///
///   open-loop  : no interlock (baseline)
///   spo2-only  : single-sensor interlock (pulse oximetry)
///   dual       : dual-sensor interlock (oximetry + capnography)
///
/// Reported per (archetype, configuration): severe-hypoxemia rate, mean
/// minimum true SpO2, mean minutes below SpO2 90, mean drug delivered
/// and mean pain score. A second table repeats the sweep under NORMAL
/// (pain-driven, sedation-limited) demand, showing that the interlock
/// never interferes with ordinary therapy.

#include <iostream>

#include "bench_io.hpp"
#include "core/core.hpp"
#include "scenario/scenario.hpp"
#include "sim/table.hpp"

using namespace mcps;
using namespace mcps::sim::literals;

namespace {

constexpr std::uint64_t kMasterSeed = 20260706;

// Full-size by default; `--quick` shrinks both (JSON smoke test).
std::size_t g_patients_per_cell = 10;
sim::SimDuration g_duration = 4_h;

struct CellResult {
    double severe_rate = 0;
    double mean_min_spo2 = 0;
    double mean_min_below90 = 0;  // minutes
    double mean_drug_mg = 0;
    double mean_pain = 0;
    double mean_stops = 0;
};

enum class LoopConfig { kOpen, kSpO2Only, kDual };

const char* name_of(LoopConfig c) {
    switch (c) {
        case LoopConfig::kOpen: return "open-loop";
        case LoopConfig::kSpO2Only: return "spo2-only";
        case LoopConfig::kDual: return "dual-sensor";
    }
    return "?";
}

const char* interlock_knob(LoopConfig c) {
    switch (c) {
        case LoopConfig::kOpen: return "off";
        case LoopConfig::kSpO2Only: return "spo2";
        case LoopConfig::kDual: return "dual";
    }
    return "?";
}

CellResult run_cell(physio::Archetype arch, LoopConfig loop,
                    core::DemandMode demand) {
    sim::RngStream pop_rng{kMasterSeed, "e1.population." +
                                            std::string{to_string(arch)}};
    const auto population =
        physio::sample_population(arch, g_patients_per_cell, pop_rng);

    // The registry spec carries the categorical knobs; the swept
    // quantities (sampled patient, per-patient seed, duration) are set
    // on the resolved config directly.
    scenario::ScenarioSpec spec;
    spec.name = "pca";
    spec.set("demand", demand == core::DemandMode::kProxy ? "proxy" : "normal");
    spec.set("interlock", interlock_knob(loop));

    CellResult cell;
    sim::RunningStats min_spo2, below90, drug, pain, stops;
    std::size_t severe = 0;
    for (std::size_t i = 0; i < population.size(); ++i) {
        auto cfg = scenario::make_pca_config(spec);
        cfg.seed = kMasterSeed + 1000 * static_cast<std::uint64_t>(i);
        cfg.duration = g_duration;
        cfg.patient = population[i];
        const auto r = core::run_pca_scenario(cfg);
        severe += r.severe_hypoxemia ? 1 : 0;
        min_spo2.add(r.min_spo2);
        below90.add(r.time_spo2_below_90_s / 60.0);
        drug.add(r.total_drug_mg);
        pain.add(r.mean_pain);
        stops.add(static_cast<double>(r.interlock.stops_issued));
    }
    cell.severe_rate =
        static_cast<double>(severe) / static_cast<double>(population.size());
    cell.mean_min_spo2 = min_spo2.mean();
    cell.mean_min_below90 = below90.mean();
    cell.mean_drug_mg = drug.mean();
    cell.mean_pain = pain.mean();
    cell.mean_stops = stops.mean();
    return cell;
}

void run_table(core::DemandMode demand, const std::string& title,
               const std::string& tag, mcps::benchio::JsonReporter& json) {
    sim::Table table({"archetype", "config", "severe_rate", "min_spo2",
                      "min_below90", "drug_mg", "pain", "stops"});
    for (const auto arch : physio::all_archetypes()) {
        for (const auto loop :
             {LoopConfig::kOpen, LoopConfig::kSpO2Only, LoopConfig::kDual}) {
            const auto cell = run_cell(arch, loop, demand);
            table.row()
                .cell(std::string{to_string(arch)})
                .cell(name_of(loop))
                .cell(cell.severe_rate, 2)
                .cell(cell.mean_min_spo2, 1)
                .cell(cell.mean_min_below90, 1)
                .cell(cell.mean_drug_mg, 2)
                .cell(cell.mean_pain, 1)
                .cell(cell.mean_stops, 1);
            const std::string prefix = tag + "." +
                                       std::string{to_string(arch)} + "." +
                                       name_of(loop);
            json.metric(prefix + ".severe_rate", cell.severe_rate, "ratio");
            json.metric(prefix + ".mean_pain", cell.mean_pain, "score");
        }
    }
    table.print(std::cout, title);
    std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
    mcps::benchio::JsonReporter json{argc, argv, "e1_pca_interlock"};
    json.set_seed(kMasterSeed);
    if (mcps::benchio::quick_mode(argc, argv)) {
        g_patients_per_cell = 2;
        g_duration = 30_min;
    }
    std::cout << "E1: PCA closed-loop safety interlock vs open-loop PCA\n"
              << "(" << g_patients_per_cell << " sampled patients per cell, "
              << g_duration.to_minutes() << " simulated minutes each)\n\n";
    run_table(core::DemandMode::kProxy,
              "E1a: PCA-by-proxy demand (intrinsic PCA safety defeated)",
              "proxy", json);
    run_table(core::DemandMode::kNormal,
              "E1b: normal pain-driven demand (therapy preserved)", "normal",
              json);
    std::cout
        << "Expected shape: open-loop shows severe hypoxemia for sensitive/\n"
           "high-risk archetypes under proxy pressing; both interlocks\n"
           "eliminate it, with the dual-sensor variant acting earlier; under\n"
           "normal demand all configurations are equally safe and deliver\n"
           "comparable analgesia (the interlock does not fight therapy).\n";
    return json.write() ? 0 : 1;
}
