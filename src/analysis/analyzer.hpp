/// \file analyzer.hpp
/// \brief The analysis driver: runs rules over targets, applies
/// suppressions, accumulates one AnalysisReport.
///
/// Usage (mirrors `mcps analyze`):
///
///   Analyzer a{suppressions};
///   a.check_automaton("pump_lockout", model, {.expected_unreachable =
///       {"Violation"}});
///   a.check_assembly(spec);
///   a.check_hazards(log, &gsn_case);
///   a.scan_sources("src");
///   const AnalysisReport& r = a.report();  // r.clean() gates CI

#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "assurance_lint.hpp"
#include "conc_lint.hpp"
#include "deadline_lint.hpp"
#include "finding.hpp"
#include "ice_lint.hpp"
#include "scenario_scan.hpp"
#include "source_scan.hpp"
#include "ta_lint.hpp"

namespace mcps::analysis {

class Analyzer {
public:
    explicit Analyzer(SuppressionSet suppressions = {});

    /// TA1–TA4 on one closed automaton.
    void check_automaton(const std::string& display_name,
                         const ta::TimedAutomaton& ta,
                         const TaLintOptions& opts = {});
    /// ICE1 on one assembly.
    void check_assembly(const AssemblySpec& spec);
    /// AS1 on a hazard log (+ optional GSN case). The coverage matrix
    /// of the LAST call is kept for reporting.
    void check_hazards(const assurance::HazardLog& log,
                       const assurance::AssuranceCase* gsn = nullptr);
    /// SIM1 over a source tree.
    void scan_sources(const std::filesystem::path& root);
    /// ICE1 registry-bypass scan over a source tree: direct
    /// PcaScenarioConfig/XrayScenarioConfig assembly outside the
    /// scenario layer (scenario_scan.hpp).
    void scan_scenario_assembly(const std::filesystem::path& root);
    /// CONC1 lock-discipline scan over the roots as one unit
    /// (conc_lint.hpp); missing roots become CFG1 findings.
    void scan_concurrency(const std::vector<std::filesystem::path>& roots);
    /// TA5 deadline feasibility over every registry preset's
    /// claimed-safe envelope; the slack table of the LAST call is kept
    /// (deadline_report()). With \p cross_check, also runs the
    /// canonical pca/xray presets and checks observed latencies against
    /// the static bounds (costs two scenario runs).
    void check_deadlines(const DeadlineOptions& opts = {},
                         bool cross_check = false);

    [[nodiscard]] const AnalysisReport& report() const noexcept {
        return report_;
    }
    [[nodiscard]] const HazardCoverage& last_coverage() const noexcept {
        return coverage_;
    }
    [[nodiscard]] const DeadlineReport& deadline_report() const noexcept {
        return deadlines_;
    }

private:
    void absorb(std::vector<Finding> findings);
    /// Emit a CFG1 error when \p root does not exist (a scan that would
    /// silently cover zero files); returns false on the miss.
    bool require_root(const std::filesystem::path& root);

    SuppressionSet suppressions_;
    AnalysisReport report_;
    HazardCoverage coverage_;
    DeadlineReport deadlines_;
};

}  // namespace mcps::analysis
