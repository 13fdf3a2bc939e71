/// \file test_cli_args.cpp
/// \brief The shared CLI parsing layer (tools/cli.hpp): exact error
/// message contract, Args cursor semantics and the parse loop's mode
/// rule on a small table. Every `mcps <cmd>` driver surfaces these
/// strings verbatim, so they are pinned here.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tools/cli.hpp"

namespace {

using mcps::cli::Args;
using mcps::cli::CliError;

template <typename Fn>
std::string cli_error_of(Fn&& fn) {
    try {
        fn();
    } catch (const CliError& e) {
        return e.message;
    }
    return "";
}

TEST(CliParse, U64AcceptsStrictDecimal) {
    EXPECT_EQ(mcps::cli::parse_u64("--seed", "42"), 42u);
    EXPECT_EQ(mcps::cli::parse_u64("--seed", "0"), 0u);
    EXPECT_EQ(cli_error_of([] { mcps::cli::parse_u64("--seed", "4x"); }),
              "--seed: expected an integer, got '4x'");
    EXPECT_EQ(cli_error_of([] { mcps::cli::parse_u64("--seed", ""); }),
              "--seed: expected an integer, got ''");
    EXPECT_EQ(cli_error_of([] { mcps::cli::parse_u64("--seed", "-1"); }),
              "--seed: expected an integer, got '-1'");
}

TEST(CliParse, DoubleConsumesWholeToken) {
    EXPECT_DOUBLE_EQ(mcps::cli::parse_double("--loss", "0.25"), 0.25);
    EXPECT_DOUBLE_EQ(mcps::cli::parse_double("--loss", "1e-3"), 1e-3);
    EXPECT_EQ(cli_error_of([] { mcps::cli::parse_double("--loss", "0.5x"); }),
              "--loss: expected a number, got '0.5x'");
    EXPECT_EQ(cli_error_of([] { mcps::cli::parse_double("--loss", ""); }),
              "--loss: expected a number, got ''");
}

TEST(CliParse, UnsignedListRejectsEmptyEntries) {
    EXPECT_EQ(mcps::cli::parse_unsigned_list("--jobs", "1,4,8"),
              (std::vector<unsigned>{1, 4, 8}));
    EXPECT_EQ(mcps::cli::parse_unsigned_list("--jobs", "2"),
              (std::vector<unsigned>{2}));
    EXPECT_EQ(
        cli_error_of([] { mcps::cli::parse_unsigned_list("--jobs", "1,,2"); }),
        "--jobs: empty entry in '1,,2'");
    EXPECT_EQ(
        cli_error_of([] { mcps::cli::parse_unsigned_list("--jobs", "1,"); }),
        "--jobs: empty entry in '1,'");
    EXPECT_EQ(
        cli_error_of([] { mcps::cli::parse_unsigned_list("--jobs", "1,x"); }),
        "--jobs: expected an integer, got 'x'");
}

TEST(CliParse, JobsAndListsRefuseValuesAboveTheirMaximum) {
    EXPECT_EQ(mcps::cli::parse_jobs("--jobs", "256"), 256u);
    EXPECT_EQ(cli_error_of([] { mcps::cli::parse_jobs("--jobs", "257"); }),
              "--jobs: 257 is above the maximum 256");
    // 2^32 + 1 would wrap to 1 in an unsigned cast.
    EXPECT_EQ(
        cli_error_of([] { mcps::cli::parse_jobs("--jobs", "4294967297"); }),
        "--jobs: 4294967297 is above the maximum 256");
    EXPECT_EQ(cli_error_of([] {
                  mcps::cli::parse_unsigned_list("--clients-list",
                                                 "1,4294967297");
              }),
              "--clients-list: 4294967297 is above the maximum 4294967295");
    EXPECT_EQ(cli_error_of([] {
                  mcps::cli::parse_unsigned_list("--verify-obs-jobs", "1,257",
                                                 256);
              }),
              "--verify-obs-jobs: 257 is above the maximum 256");
}

TEST(CliArgs, CursorWalksTokensInOrder) {
    Args args{{"run", "--seed", "7", "trailing"}};
    EXPECT_FALSE(args.done());
    EXPECT_EQ(args.next(), "run");
    EXPECT_EQ(args.next(), "--seed");
    EXPECT_EQ(args.value("--seed"), "7");
    EXPECT_EQ(args.next(), "trailing");
    EXPECT_TRUE(args.done());
}

TEST(CliArgs, MissingValueNamesTheFlag) {
    Args args{{"--out"}};
    EXPECT_EQ(args.next(), "--out");
    EXPECT_EQ(cli_error_of([&] { (void)args.value("--out"); }),
              "--out: missing value");
}

TEST(CliParse, CountsAndListsRefuseValuesBelowTheirMinimum) {
    EXPECT_EQ(mcps::cli::parse_u64("--clients", "1", 1, 256), 1u);
    EXPECT_EQ(
        cli_error_of([] { mcps::cli::parse_u64("--clients", "0", 1, 256); }),
        "--clients: 0 is below the minimum 1");
    EXPECT_EQ(cli_error_of([] {
                  mcps::cli::parse_unsigned_list("--clients-list", "0,4",
                                                 256, 1);
              }),
              "--clients-list: 0 is below the minimum 1");
}

// A two-mode table: `--replay` reads only itself, `--hospital` reads
// `--seed` but not `--weakened`.
constexpr mcps::cli::Mode kModes[] = {{"--replay"}, {"--hospital"}};
constexpr mcps::cli::Option kOptions[] = {
    {"--seed", mcps::cli::count("N", 0, 9), "--hospital", "seed"},
    {"--weakened", mcps::cli::kSwitch, "", "weakened fixture"},
    {"--hospital", mcps::cli::kSwitch, "--hospital", "hospital family"},
    {"--replay", mcps::cli::text("FILE"), "--replay", "replay a file"},
    {"--jobs", mcps::cli::list(1, 8, 2), "*", "job counts"},
    {"--fraction", mcps::cli::number("X", 0, 1), "*", "a probability"},
};
constexpr mcps::cli::Command kTool{"tool", "a test table", kModes, kOptions};

mcps::cli::Parsed parse(std::vector<std::string_view> args) {
    return mcps::cli::parse(kTool, args);
}

TEST(CliTable, ParseReadsTypedValuesAndKeepsTheLast) {
    const auto p = parse({"--seed", "3", "--weakened", "--seed", "4"});
    EXPECT_EQ(p.count("--seed", std::uint64_t{0}), 4u);
    EXPECT_TRUE(p.has("--weakened"));
    EXPECT_FALSE(p.has("--hospital"));
    EXPECT_EQ(p.text("--replay", "none"), "none");
    EXPECT_EQ(parse({"--jobs", "1,8"}).list("--jobs"),
              (std::vector<unsigned>{1, 8}));
    EXPECT_DOUBLE_EQ(parse({"--fraction", "0.25"}).number("--fraction", 1.0),
                     0.25);
    EXPECT_TRUE(parse({"--seed", "1", "--help", "--bogus"}).help);
}

TEST(CliTable, ModeRuleNamesTheFlagAndTheMode) {
    EXPECT_EQ(cli_error_of([] { parse({"--hospital", "--weakened"}); }),
              "--weakened: not supported with --hospital");
    EXPECT_EQ(cli_error_of([] { parse({"--weakened", "--hospital"}); }),
              "--weakened: not supported with --hospital");
    // The earlier mode is checked first, whatever the order given.
    EXPECT_EQ(cli_error_of([] { parse({"--hospital", "--replay", "f"}); }),
              "--hospital: not supported with --replay");
    EXPECT_NO_THROW(parse({"--hospital", "--seed", "2", "--jobs", "1,2"}));
}

TEST(CliTable, ValuesAreCheckedWhileParsing) {
    EXPECT_EQ(cli_error_of([] { parse({"--seed", "10"}); }),
              "--seed: 10 is above the maximum 9");
    EXPECT_EQ(cli_error_of([] { parse({"--jobs", "4"}); }),
              "--jobs: need at least 2 entries in '4'");
    EXPECT_EQ(cli_error_of([] { parse({"--jobs", "0,4"}); }),
              "--jobs: 0 is below the minimum 1");
    EXPECT_EQ(cli_error_of([] { parse({"--fraction", "nan"}); }),
              "--fraction: nan is outside [0, 1]");
    EXPECT_EQ(cli_error_of([] { parse({"--fraction", "1e9"}); }),
              "--fraction: 1e+09 is outside [0, 1]");
    EXPECT_EQ(cli_error_of([] { parse({"--replay"}); }),
              "--replay: missing value");
    EXPECT_EQ(cli_error_of([] { parse({"--bogus"}); }),
              "unknown option '--bogus'");
    EXPECT_EQ(cli_error_of([] { parse({"stray"}); }),
              "unknown option 'stray'");
}

}  // namespace
