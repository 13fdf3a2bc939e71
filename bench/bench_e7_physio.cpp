/// \file bench_e7_physio.cpp
/// \brief Experiment E7 — the virtual patient makes in-silico validation
/// possible: integrator accuracy against the analytic solution, the
/// canonical overdose trajectory, and population time-to-event spread.

#include <cmath>
#include <iostream>

#include "bench_io.hpp"
#include "physio/physio.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"

using namespace mcps;
using namespace mcps::physio;

int main(int argc, char** argv) {
    mcps::benchio::JsonReporter json{argc, argv, "e7_physio"};
    json.set_seed(77);
    const bool quick = mcps::benchio::quick_mode(argc, argv);
    // E7c population size and observation horizon (steps of 0.5 s).
    const std::size_t pop_n = quick ? 4 : 30;
    const int horizon_steps = quick ? 30 * 60 * 2 : 2 * 3600 * 2;
    std::cout << "E7: patient-model validation\n\n";

    // ---- E7a: integrator accuracy vs analytic PK ----------------------
    {
        sim::Table t({"dt_s", "max_rel_error", "steps_per_sim_hour"});
        PkParameters one_comp;
        one_comp.k12_per_min = 0.0;
        one_comp.k21_per_min = 0.0;
        for (const double dt : {10.0, 5.0, 1.0, 0.5, 0.1}) {
            PkTwoCompartment pk{one_comp};
            pk.bolus(Dose::mg(2.0));
            double max_rel = 0.0;
            const int steps = static_cast<int>(3600.0 / dt);
            for (int i = 0; i < steps; ++i) {
                pk.step(dt, InfusionRate::zero());
                const double expect =
                    one_compartment_bolus_analytic(one_comp, Dose::mg(2.0),
                                                   (i + 1) * dt)
                        .as_ng_per_ml();
                const double got = pk.plasma().as_ng_per_ml();
                if (expect > 1e-9) {
                    max_rel = std::max(max_rel,
                                       std::abs(got - expect) / expect);
                }
            }
            char err[32];
            std::snprintf(err, sizeof err, "%.2e", max_rel);
            t.row().cell(dt, 1).cell(std::string{err}).cell(
                std::int64_t{steps});
            char key[48];
            std::snprintf(key, sizeof key, "rk4.dt_%.1fs.max_rel_error", dt);
            json.metric(key, max_rel, "ratio");
        }
        t.print(std::cout,
                "E7a: RK4 plasma-concentration error vs analytic bolus decay "
                "(1 sim hour)");
        std::cout << '\n';
    }

    // ---- E7b: canonical overdose trajectory ----------------------------
    {
        sim::Table t({"t_min", "ce_ng_ml", "drive", "rr", "paco2", "spo2",
                      "apneic"});
        Patient p{nominal_parameters(Archetype::kOpioidSensitive)};
        p.set_infusion_rate(InfusionRate::mg_per_hour(6.0));  // runaway pump
        for (int minute = 0; minute <= 40; minute += 4) {
            t.row()
                .cell(std::int64_t{minute})
                .cell(p.pk().effect_site().as_ng_per_ml(), 1)
                .cell(p.respiratory_drive(), 2)
                .cell(p.resp_rate().as_per_minute(), 1)
                .cell(p.paco2_mmhg(), 1)
                .cell(p.spo2().as_percent(), 1)
                .cell(p.is_apneic() ? "YES" : "no");
            for (int i = 0; i < 480; ++i) p.step(0.5);  // 4 minutes
        }
        t.print(std::cout,
                "E7b: overdose trajectory (sensitive patient, 6 mg/h "
                "runaway infusion)");
        std::cout << '\n';
    }

    // ---- E7c: population time-to-event spread --------------------------
    {
        sim::Table t({"archetype", "n", "apnea_rate", "tta_p10_min",
                      "tta_median_min", "tta_p90_min"});
        for (const auto arch : all_archetypes()) {
            sim::RngStream rng{77, "e7.pop." + std::string{to_string(arch)}};
            const auto pop = sample_population(arch, pop_n, rng);
            sim::SampleSet tta;
            int apneas = 0;
            for (const auto& params : pop) {
                Patient p{params};
                p.set_infusion_rate(InfusionRate::mg_per_hour(6.0));
                double t_apnea = -1;
                for (int i = 0; i < horizon_steps; ++i) {
                    p.step(0.5);
                    if (p.is_apneic()) {
                        t_apnea = p.elapsed_seconds() / 60.0;
                        break;
                    }
                }
                if (t_apnea >= 0) {
                    ++apneas;
                    tta.add(t_apnea);
                }
            }
            t.row()
                .cell(std::string{to_string(arch)})
                .cell(static_cast<std::uint64_t>(pop.size()))
                .cell(static_cast<double>(apneas) /
                          static_cast<double>(pop.size()),
                      2)
                .cell(tta.empty() ? -1.0 : tta.quantile(0.1), 1)
                .cell(tta.empty() ? -1.0 : tta.median(), 1)
                .cell(tta.empty() ? -1.0 : tta.quantile(0.9), 1);
            const std::string key = "tta." + std::string{to_string(arch)};
            json.metric(key + ".apnea_rate",
                        static_cast<double>(apneas) /
                            static_cast<double>(pop.size()),
                        "ratio");
            json.metric(key + ".median_min",
                        tta.empty() ? -1.0 : tta.median(), "min");
        }
        t.print(std::cout,
                "E7c: time-to-apnea under a 6 mg/h runaway infusion (" +
                    std::to_string(pop_n) + " sampled patients each)");
        std::cout << '\n';
    }

    std::cout
        << "Expected shape: RK4 error falls ~dt^4 until double-precision\n"
           "floor; the overdose trajectory shows the textbook cascade\n"
           "(effect-site rise -> drive collapse -> CO2 retention -> apnea ->\n"
           "desaturation over minutes); sensitive/high-risk archetypes reach\n"
           "apnea earliest with wide biological spread — the reason\n"
           "population-level in-silico validation is required.\n";
    return json.write() ? 0 : 1;
}
