/// \file bench_e5_verification.cpp
/// \brief Experiment E5 — model-based verification of pump software is
/// feasible (the GPCA workflow): property verdicts, counterexamples,
/// zone-graph sizes and wall-clock cost, including a scaling study.

#include <chrono>
#include <iostream>
#include <vector>

#include "bench_io.hpp"
#include "sim/table.hpp"
#include "ta/ta.hpp"

using namespace mcps;

namespace {

double wall_ms(const std::function<void()>& f) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
    mcps::benchio::JsonReporter json{argc, argv, "e5_verification"};
    json.set_seed(0);  // exhaustive model checking: no randomness involved
    const bool quick = mcps::benchio::quick_mode(argc, argv);
    std::cout << "E5: model checking the GPCA pump and closed loop\n\n";

    // ---- E5a: the verification suite ---------------------------------
    {
        sim::Table t({"property", "model", "verdict", "explored", "stored",
                      "wall_ms", "counterexample"});
        auto add = [&t, &json](const std::string& prop,
                               const std::string& model, bool expect_safe,
                               ta::ReachabilityResult r, double ms) {
            std::string key = "suite." + model;
            for (auto& ch : key) {
                if (ch == ' ') ch = '_';
            }
            json.metric(key + ".wall_ms", ms, "ms");
            json.metric(key + ".states_explored",
                        static_cast<double>(r.states_explored), "states");
            std::string cex;
            for (const auto& step : r.trace) {
                if (!cex.empty()) cex += " ; ";
                cex += step;
            }
            // push_back, not `cex = "-"`: GCC 12's -Wrestrict misfires
            // on the char* assignment after the append loop (PR 105329).
            if (cex.empty()) cex.push_back('-');
            t.row()
                .cell(prop)
                .cell(model)
                .cell(r.reachable ? "VIOLATED" : "SAFE")
                .cell(static_cast<std::uint64_t>(r.states_explored))
                .cell(static_cast<std::uint64_t>(r.states_stored))
                .cell(ms, 2)
                .cell(cex);
            (void)expect_safe;
        };

        {
            ta::ReachabilityResult r;
            const double ms = wall_ms([&] {
                r = ta::check_reachability(ta::build_pump_lockout_model(),
                                           "Violation");
            });
            add("P1 lockout (R1)", "correct pump", true, r, ms);
        }
        {
            ta::PumpModelParams faulty;
            faulty.faulty_no_lockout_guard = true;
            ta::ReachabilityResult r;
            const double ms = wall_ms([&] {
                r = ta::check_reachability(ta::build_pump_lockout_model(faulty),
                                           "Violation");
            });
            add("P1 lockout (R1)", "faulty pump", false, r, ms);
        }
        {
            ta::ReachabilityResult r;
            const double ms = wall_ms([&] {
                r = ta::check_reachability(ta::build_closed_loop_model(),
                                           "Overdue");
            });
            add("P2 stop deadline", "in-budget loop", true, r, ms);
        }
        {
            ta::InterlockModelParams slow;
            slow.detect_max_s = 70;
            ta::ReachabilityResult r;
            const double ms = wall_ms([&] {
                r = ta::check_reachability(ta::build_closed_loop_model(slow),
                                           "Overdue");
            });
            add("P2 stop deadline", "slow detection", false, r, ms);
        }
        t.print(std::cout, "E5a: GPCA property suite");
        std::cout << '\n';
    }

    // ---- E5b: deadline budget boundary --------------------------------
    {
        sim::Table t({"detect_max_s", "worst_total_s", "deadline_s",
                      "verdict", "explored"});
        for (const int detect : {20, 40, 54, 55, 56, 70}) {
            ta::InterlockModelParams p;
            p.detect_max_s = detect;  // + 3 command + 2 react vs 60 deadline
            const auto r =
                ta::check_reachability(ta::build_closed_loop_model(p),
                                       "Overdue");
            t.row()
                .cell(std::int64_t{detect})
                .cell(std::int64_t{detect + 3 + 2})
                .cell(std::int64_t{60})
                .cell(r.reachable ? "VIOLATED" : "SAFE")
                .cell(static_cast<std::uint64_t>(r.states_explored));
        }
        t.print(std::cout,
                "E5b: response-deadline boundary (checker matches the "
                "arithmetic exactly)");
        std::cout << '\n';
    }

    // ---- E5c: scaling study -------------------------------------------
    {
        sim::Table t({"pumps", "locations", "clocks", "explored", "stored",
                      "wall_ms"});
        // The 3/4-pump farms dominate the wall clock; --quick stops at 2.
        const std::vector<std::size_t> farm_sizes =
            quick ? std::vector<std::size_t>{1, 2}
                  : std::vector<std::size_t>{1, 2, 3, 4};
        for (const std::size_t n : farm_sizes) {
            ta::ReachabilityResult r;
            std::size_t locations = 0, clocks = 0;
            const double ms = wall_ms([&] {
                const auto farm = ta::build_pump_farm(n);
                locations = farm.num_locations();
                clocks = farm.num_clocks();
                r = ta::check_reachability(farm, "Violation");
            });
            t.row()
                .cell(static_cast<std::uint64_t>(n))
                .cell(static_cast<std::uint64_t>(locations))
                .cell(static_cast<std::uint64_t>(clocks))
                .cell(static_cast<std::uint64_t>(r.states_explored))
                .cell(static_cast<std::uint64_t>(r.states_stored))
                .cell(ms, 1);
            const std::string key = "farm." + std::to_string(n) + "pumps";
            json.metric(key + ".wall_ms", ms, "ms");
            json.metric(key + ".states_explored",
                        static_cast<double>(r.states_explored), "states");
            if (r.reachable) {
                std::cout << "UNEXPECTED: farm of " << n << " violated!\n";
            }
        }
        t.print(std::cout,
                "E5c: zone-graph growth with composed pump instances");
        std::cout << '\n';
    }

    std::cout
        << "Expected shape: correct models verify SAFE in milliseconds with\n"
           "tiny zone graphs; the injected defect yields the classic\n"
           "double-grant counterexample; the deadline verdict flips exactly\n"
           "where detect+command+react crosses the deadline; composition\n"
           "grows the explored state space exponentially (the motivation for\n"
           "compositional certification the paper raises).\n";
    return json.write() ? 0 : 1;
}
