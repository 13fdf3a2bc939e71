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

constexpr cli::Mode kModes[] = {
    {"--check-sarif"}, {"--list-rules"}, {"--no-deadlines"}, {"--no-scan"}};

/// The flags an analysis run reads, with --no-deadlines or --no-scan.
constexpr std::string_view kRun = "--no-deadlines --no-scan";

constexpr cli::Option kOptions[] = {
    {"--json", cli::kOutPath, kRun, "write the report as JSON"},
    {"--sarif", cli::kOutPath, kRun, "write the report as SARIF 2.1.0"},
    {"--suppress", cli::text("R1,R2"), kRun,
     "suppress the findings of these rules"},
    {"--src-root", cli::text("DIR"), "--no-deadlines",
     "root of the SIM1 banned-construct scan (default src)"},
    {"--scan-scenarios", cli::text("DIR"), kRun,
     "ICE1 registry-bypass scan over DIR's scenario consumers "
     "(repeatable)"},
    {"--scan-conc", cli::text("DIR"), kRun,
     "CONC1 lock-discipline scan over DIR; all roots form one unit "
     "(repeatable)"},
    {"--no-scan", cli::kSwitch, kRun, "skip the SIM1 source scan"},
    {"--no-deadlines", cli::kSwitch, kRun, "skip the TA5 deadline analysis"},
    {"--deadline-table", cli::kSwitch, "--no-scan",
     "print the TA5 deadline slack table"},
    {"--cross-check", cli::kSwitch, "--no-scan",
     "cross-check the TA5 bounds against observed sim latencies"},
    {"--list-rules", cli::kSwitch, "--list-rules",
     "print the rule catalog and run nothing"},
    {"--matrix", cli::kSwitch, kRun, "print the hazard-coverage matrix"},
    {"--quiet", cli::kSwitch, kRun, "print the report only with findings"},
    {"--check-sarif", cli::text("PATH"), "--check-sarif",
     "check one SARIF file's structure and do nothing else"},
};

const cli::Command kAnalyzeCli{"analyze", "model-level safety linter",
                               kModes, kOptions};

int analyze_main(std::string_view prog,
                 const std::vector<std::string_view>& args) {
    return cli::tool_main(prog, kAnalyzeCli, args, [&](const cli::Parsed& p) {
        if (p.has("--check-sarif")) {
            return check_sarif_file(prog, p.text("--check-sarif"));
        }
        if (p.has("--list-rules")) {
            for (analysis::RuleId r : analysis::all_rules()) {
                std::cout << analysis::rule_name(r) << "\t"
                          << analysis::rule_summary(r) << "\n";
            }
            return 0;
        }

        const std::string suppress_list = p.text("--suppress");
        analysis::SuppressionSet suppressions;
        if (!suppress_list.empty() &&
            !suppressions.parse_list(suppress_list)) {
            throw cli::CliError{"--suppress: unknown rule in '" +
                                suppress_list + "'"};
        }

        analysis::Analyzer analyzer{suppressions};
        analysis::add_shipped_ta_models(analyzer);
        analysis::add_shipped_assemblies(analyzer);
        const auto log = assurance::build_gpca_hazard_log();
        const auto gsn = assurance::build_gpca_case_skeleton();
        analyzer.check_hazards(log, &gsn);
        if (!p.has("--no-deadlines")) {
            analyzer.check_deadlines({}, p.has("--cross-check"));
        }
        if (!p.has("--no-scan")) {
            analyzer.scan_sources(p.text("--src-root", "src"));
        }
        for (const std::string& root : p.all("--scan-scenarios")) {
            analyzer.scan_scenario_assembly(root);
        }
        const std::vector<std::string> conc = p.all("--scan-conc");
        if (!conc.empty()) {
            analyzer.scan_concurrency({conc.begin(), conc.end()});
        }

        const analysis::AnalysisReport& report = analyzer.report();
        const std::string json_path = p.text("--json");
        const std::string sarif_path = p.text("--sarif");
        const bool quiet = p.has("--quiet");
        if (!quiet || !report.clean()) {
            std::cout << report.to_text();
        }
        if (p.has("--matrix")) {
            std::cout << "\nhazard-coverage matrix:\n"
                      << analyzer.last_coverage().to_text();
        }
        if (p.has("--deadline-table")) {
            std::cout << "\nTA5 deadline slack table:\n"
                      << analyzer.deadline_report().to_text();
        }
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
        const bool config_error = std::any_of(
            report.findings.begin(), report.findings.end(),
            [](const analysis::Finding& f) {
                return f.rule == analysis::RuleId::kCFG1;
            });
        if (config_error) return 3;
        return report.clean() ? 0 : 1;
    });
}

}  // namespace mcps::drivers
