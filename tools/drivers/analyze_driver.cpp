/// \file analyze_driver.cpp
/// \brief The model-level safety linter driver: statically cross-checks
/// every shipped safety model without executing a simulation tick (see
/// drivers.hpp).
///
/// Checks run (see src/analysis/finding.hpp for the rule catalog):
///   TA1–TA4 on the shipped timed-automata models (pump lockout,
///           closed-loop response, 2-pump farm),
///   TA5     deadline feasibility: static worst-case interlock latency
///           over every registry preset's claimed-safe knob envelope
///           (optionally cross-checked against observed sim latencies),
///   ICE1    on the shipped ICE assemblies (PCA closed loop,
///           X-ray/ventilator sync), plus — per --scan-scenarios root —
///           the registry-bypass scan over scenario consumers,
///   AS1     on the GPCA hazard log vs. the GSN case skeleton,
///   SIM1    banned-construct scan over the source tree,
///   CONC1   lock-discipline scan (MCPS_GUARDED_BY / MCPS_LOCK_ORDER)
///           over the --scan-conc roots as one unit,
///   CFG1    configuration sanity: a missing scan root is an error (the
///           scan would otherwise silently cover zero files).
///
/// The shipped model set itself lives in src/analysis/shipped.hpp so
/// this driver and the pipeline's analysis passes check the same thing.
///
/// Exit codes: 0 = clean, 1 = findings, 2 = usage/internal error,
/// 3 = configuration error (CFG1: a scan root is missing — takes
/// precedence over 1 so CI can tell "found problems" from "looked at
/// nothing"). --check-sarif: 0 = valid, 1 = invalid, 2 = unreadable or
/// another flag beside it.
/// CI gate: tools/ci_analysis.sh runs this on every build.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "../cli.hpp"
#include "../drivers.hpp"
#include "analysis/analysis.hpp"
#include "analysis/shipped.hpp"
#include "assurance/assurance.hpp"

namespace {

using namespace mcps;

int usage(std::string_view prog) {
    std::cerr
        << "usage: " << prog
        << " [--json <path>] [--sarif <path>] [--suppress R1,R2]\n"
           "       [--src-root <dir>] [--scan-scenarios <dir>]...\n"
           "       [--scan-conc <dir>]... [--no-scan] [--no-deadlines]\n"
           "       [--deadline-table] [--cross-check] [--list-rules]\n"
           "       [--matrix] [--quiet]\n"
           "       " << prog << " --check-sarif <path>\n";
    return 2;
}

int check_sarif_file(std::string_view prog, const std::string& path) {
    std::ifstream in{path};
    if (!in) {
        std::cerr << prog << ": --check-sarif: cannot read '" << path
                  << "'\n";
        return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    if (!analysis::validate_sarif_minimal(buf.str(), error)) {
        std::cerr << prog << ": " << path << ": invalid SARIF: " << error
                  << "\n";
        return 1;
    }
    std::cout << path << ": valid SARIF 2.1.0 (structural check)\n";
    return 0;
}

}  // namespace

namespace mcps::drivers {

int analyze_main(std::string_view prog,
                 const std::vector<std::string_view>& args) {
    std::string json_path;
    std::string sarif_path;
    std::string suppress_list;
    std::string src_root = "src";
    std::vector<std::string> scenario_roots;
    std::vector<std::filesystem::path> conc_roots;
    bool scan = true;
    bool deadlines = true;
    bool deadline_table = false;
    bool cross_check = false;
    bool quiet = false;
    bool matrix = false;
    bool list_rules = false;
    std::optional<std::string> check_sarif;
    // The first flag other than --check-sarif: the SARIF check is the
    // whole run, so any other flag beside it is refused.
    std::string other_flag;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string arg{args[i]};
        if (arg != "--check-sarif" && other_flag.empty()) other_flag = arg;
        auto next = [&](std::string& out) {
            if (i + 1 >= args.size()) {
                std::cerr << prog << ": " << arg << ": missing value\n";
                return false;
            }
            out = std::string{args[++i]};
            return true;
        };
        if (arg == "--json") {
            if (!next(json_path)) return 2;
        } else if (arg == "--sarif") {
            if (!next(sarif_path)) return 2;
        } else if (arg == "--check-sarif") {
            if (!next(check_sarif.emplace())) return 2;
        } else if (arg == "--suppress") {
            if (!next(suppress_list)) return 2;
        } else if (arg == "--src-root") {
            if (!next(src_root)) return 2;
        } else if (arg == "--scan-scenarios") {
            std::string root;
            if (!next(root)) return 2;
            scenario_roots.push_back(std::move(root));
        } else if (arg == "--scan-conc") {
            std::string root;
            if (!next(root)) return 2;
            conc_roots.emplace_back(std::move(root));
        } else if (arg == "--no-scan") {
            scan = false;
        } else if (arg == "--no-deadlines") {
            deadlines = false;
        } else if (arg == "--deadline-table") {
            deadline_table = true;
        } else if (arg == "--cross-check") {
            cross_check = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--matrix") {
            matrix = true;
        } else if (arg == "--list-rules") {
            list_rules = true;
        } else {
            return usage(prog);
        }
    }

    if (check_sarif) {
        if (!other_flag.empty()) {
            std::cerr << prog << ": " << other_flag
                      << ": not supported with --check-sarif\n";
            return 2;
        }
        return check_sarif_file(prog, *check_sarif);
    }
    if (list_rules) {
        // The rule list is the whole output: a report flag beside it
        // would name a file that is never written.
        const char* report_flag = !json_path.empty()    ? "--json"
                                  : !sarif_path.empty() ? "--sarif"
                                                        : nullptr;
        if (report_flag) {
            std::cerr << prog << ": " << report_flag
                      << ": not supported with --list-rules\n";
            return 2;
        }
        for (analysis::RuleId r : analysis::all_rules()) {
            std::cout << analysis::rule_name(r) << "\t"
                      << analysis::rule_summary(r) << "\n";
        }
        return 0;
    }

    analysis::SuppressionSet suppressions;
    if (!suppress_list.empty() && !suppressions.parse_list(suppress_list)) {
        std::cerr << prog << ": --suppress: unknown rule in '"
                  << suppress_list << "'\n";
        return 2;
    }

    analysis::Analyzer analyzer{suppressions};
    try {
        analysis::add_shipped_ta_models(analyzer);
        analysis::add_shipped_assemblies(analyzer);
        const auto log = assurance::build_gpca_hazard_log();
        const auto gsn = assurance::build_gpca_case_skeleton();
        analyzer.check_hazards(log, &gsn);
        if (deadlines) analyzer.check_deadlines({}, cross_check);
        if (scan) analyzer.scan_sources(src_root);
        for (const std::string& root : scenario_roots) {
            analyzer.scan_scenario_assembly(root);
        }
        if (!conc_roots.empty()) analyzer.scan_concurrency(conc_roots);
    } catch (const std::exception& e) {
        std::cerr << prog << ": " << e.what() << "\n";
        return 2;
    }

    const analysis::AnalysisReport& report = analyzer.report();
    if (!quiet || !report.clean()) {
        std::cout << report.to_text();
    }
    if (matrix) {
        std::cout << "\nhazard-coverage matrix:\n"
                  << analyzer.last_coverage().to_text();
    }
    if (deadline_table && deadlines) {
        std::cout << "\nTA5 deadline slack table:\n"
                  << analyzer.deadline_report().to_text();
    }
    try {
        if (!json_path.empty()) {
            cli::write_file("--json", json_path, [&](std::ostream& out) {
                report.write_json(out);
            });
            if (!quiet) std::cout << "json report: " << json_path << "\n";
        }
        if (!sarif_path.empty()) {
            cli::write_file("--sarif", sarif_path, [&](std::ostream& out) {
                analysis::write_sarif(report, out);
            });
            if (!quiet) std::cout << "sarif report: " << sarif_path << "\n";
        }
    } catch (const cli::CliError& e) {
        std::cerr << prog << ": " << e.message << "\n";
        return 2;
    }
    const bool config_error = std::any_of(
        report.findings.begin(), report.findings.end(),
        [](const analysis::Finding& f) {
            return f.rule == analysis::RuleId::kCFG1;
        });
    if (config_error) return 3;
    return report.clean() ? 0 : 1;
}

}  // namespace mcps::drivers
