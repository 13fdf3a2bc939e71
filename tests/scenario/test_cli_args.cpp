/// \file test_cli_args.cpp
/// \brief The shared CLI parsing layer (tools/cli.hpp): exact error
/// message contract and Args cursor semantics. The three mcps_* tools
/// surface these strings verbatim, so they are pinned here.

#include <gtest/gtest.h>

#include <string>
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
    EXPECT_EQ(args.remaining(), 4u);
    EXPECT_EQ(args.next(), "run");
    EXPECT_EQ(args.next(), "--seed");
    EXPECT_EQ(args.value("--seed"), "7");
    EXPECT_EQ(args.rest(), (std::vector<std::string_view>{"trailing"}));
    EXPECT_EQ(args.next(), "trailing");
    EXPECT_TRUE(args.done());
}

TEST(CliArgs, MissingValueNamesTheFlag) {
    Args args{{"--out"}};
    EXPECT_EQ(args.next(), "--out");
    EXPECT_EQ(cli_error_of([&] { (void)args.value("--out"); }),
              "--out: missing value");
}

TEST(CliArgs, ArgcArgvConstructorSkipsProgramName) {
    const char* argv[] = {"mcps_tool", "check", "--golden", "g.jsonl"};
    Args args{4, const_cast<char**>(argv)};
    EXPECT_EQ(args.remaining(), 3u);
    EXPECT_EQ(args.next(), "check");
}

}  // namespace
