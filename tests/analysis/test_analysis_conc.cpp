/// \file test_analysis_conc.cpp
/// \brief Seeded-defect fixtures for CONC1 (lock-discipline lint):
/// unguarded field touches, undeclared/reversed/self lock nesting,
/// cross-file lock-order cycles, waivers, and the CFG1 missing-root
/// contract of Analyzer::scan_concurrency.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "analysis/analysis.hpp"

#ifndef MCPS_ANALYSIS_FIXTURE_DIR
#error "MCPS_ANALYSIS_FIXTURE_DIR must be defined by the build"
#endif

namespace {

using namespace mcps;
using analysis::Finding;
using analysis::RuleId;

const std::filesystem::path kFixtures{MCPS_ANALYSIS_FIXTURE_DIR};

bool has_message(const std::vector<Finding>& fs, RuleId r,
                 const std::string& needle) {
    return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
        return f.rule == r && f.message.find(needle) != std::string::npos;
    });
}

TEST(AnalysisConc, CleanFixtureHasNoFindings) {
    const auto res =
        analysis::scan_concurrency({kFixtures / "conc1_clean.cpp"});
    EXPECT_EQ(res.files_scanned, 1u);
    EXPECT_TRUE(res.findings.empty())
        << (res.findings.empty() ? "" : res.findings[0].message);
    EXPECT_EQ(res.suppressed, 0u);
}

TEST(AnalysisConc, UnguardedFieldWriteIsFlagged) {
    const auto res =
        analysis::scan_concurrency({kFixtures / "conc1_unguarded.cpp"});
    ASSERT_EQ(res.findings.size(), 1u);
    EXPECT_EQ(res.findings[0].rule, RuleId::kCONC1);
    EXPECT_EQ(res.findings[0].severity, analysis::FindingSeverity::kError);
    EXPECT_TRUE(
        has_message(res.findings, RuleId::kCONC1, "touched outside any"));
    // The locked path must not be flagged: exactly the seeded defect.
    EXPECT_EQ(res.findings[0].entity, "Tally::racy_add");
}

TEST(AnalysisConc, UndeclaredNestingAndSelfDeadlockAreFlagged) {
    const auto res = analysis::scan_concurrency(
        {kFixtures / "conc1_undeclared_nesting.cpp"});
    EXPECT_EQ(res.findings.size(), 2u);
    EXPECT_TRUE(
        has_message(res.findings, RuleId::kCONC1, "undeclared lock nesting"));
    EXPECT_TRUE(has_message(res.findings, RuleId::kCONC1, "self-deadlock"));
}

TEST(AnalysisConc, DeclaredOrderTakenInReverseIsFlagged) {
    const auto res =
        analysis::scan_concurrency({kFixtures / "conc1_order_violation.cpp"});
    ASSERT_EQ(res.findings.size(), 1u);
    EXPECT_TRUE(
        has_message(res.findings, RuleId::kCONC1, "lock-order violation"));
    EXPECT_EQ(res.findings[0].entity, "Account::audit_then_post");
}

TEST(AnalysisConc, CrossFileEdgeCycleIsFlagged) {
    // Each half is clean alone; the cycle only exists over the union —
    // exactly why scan_concurrency takes all roots as one unit.
    const auto alone =
        analysis::scan_concurrency({kFixtures / "conc1_cycle_a.cpp"});
    EXPECT_TRUE(alone.findings.empty());

    const auto both = analysis::scan_concurrency(
        {kFixtures / "conc1_cycle_a.cpp", kFixtures / "conc1_cycle_b.cpp"});
    ASSERT_FALSE(both.findings.empty());
    EXPECT_TRUE(has_message(both.findings, RuleId::kCONC1, "form a cycle"));
    EXPECT_EQ(both.findings[0].entity, "lock-order");
}

TEST(AnalysisConc, InlineWaiverSuppresses) {
    const auto res =
        analysis::scan_concurrency({kFixtures / "conc1_suppressed.cpp"});
    EXPECT_TRUE(res.findings.empty())
        << (res.findings.empty() ? "" : res.findings[0].message);
    EXPECT_EQ(res.suppressed, 1u);
}

TEST(AnalysisConc, ShippedTreeIsClean) {
    // The annotated production tree must hold its own discipline:
    // src + tools scan clean, and no CONC1 waiver is needed anywhere.
    const auto root = std::filesystem::weakly_canonical(kFixtures)
                          .parent_path()
                          .parent_path();
    const auto res = analysis::scan_concurrency(
        {root / "src", root / "tools"});
    EXPECT_GT(res.files_scanned, 50u);
    EXPECT_TRUE(res.findings.empty())
        << (res.findings.empty() ? "" : res.findings[0].message);
    EXPECT_EQ(res.suppressed, 0u);
}

TEST(AnalysisConc, AnalyzerTurnsMissingRootIntoCfg1) {
    analysis::Analyzer an;
    an.scan_concurrency({kFixtures / "does_not_exist_anywhere"});
    const auto& fs = an.report().findings;
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, RuleId::kCFG1);
    EXPECT_EQ(fs[0].severity, analysis::FindingSeverity::kError);
    EXPECT_TRUE(
        has_message(fs, RuleId::kCFG1, "scan root does not exist"));
    EXPECT_FALSE(an.report().clean());
}

TEST(AnalysisConc, AnalyzerScansPresentRootsDespiteMissingOne) {
    // One bad root must not silently void the whole scan: the present
    // root is still analyzed and the CFG1 finding rides alongside.
    analysis::Analyzer an;
    an.scan_concurrency({kFixtures / "conc1_unguarded.cpp",
                         kFixtures / "no_such_dir"});
    const auto& fs = an.report().findings;
    EXPECT_TRUE(has_message(fs, RuleId::kCFG1, "scan root does not exist"));
    EXPECT_TRUE(has_message(fs, RuleId::kCONC1, "touched outside any"));
}

}  // namespace
