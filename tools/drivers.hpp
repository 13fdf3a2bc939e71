/// \file drivers.hpp
/// \brief The CLI driver registry: every mcps command as an option
/// table and a driver.
///
/// Each `<cmd>_main` is the complete implementation of one command —
/// parsing against its table `k<Cmd>Cli` (cli.hpp), execution, output,
/// exit code — parameterized only by the invocation name \p prog (used
/// in usage text and error prefixes) and the argument vector (argv
/// without the program name). The one `mcps` binary dispatches
/// `mcps <cmd> ...` to `<cmd>_main("mcps <cmd>", ...)` through kTools.
/// Exit-code contracts are each driver's own (documented in its .cpp);
/// all of them reserve 2 for usage errors.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cli.hpp"

namespace mcps::drivers {

using Argv = std::vector<std::string_view>;

/// Scenario registry (list/describe/run/selfcheck).
extern const cli::Command kRunCli;
int run_main(std::string_view prog, const Argv& args);
/// Structured traces (run/inspect/diff/check/check-bench).
extern const cli::Command kTraceCli;
int trace_main(std::string_view prog, const Argv& args);
/// Ward campaigns (--verify-serial/--verify-obs-jobs).
extern const cli::Command kWardCli;
int ward_main(std::string_view prog, const Argv& args);
/// Scenario fuzzer (the pca/xray mix, the hospital family, replay).
extern const cli::Command kFuzzCli;
int fuzz_main(std::string_view prog, const Argv& args);
/// Model-level safety linter.
extern const cli::Command kAnalyzeCli;
int analyze_main(std::string_view prog, const Argv& args);
/// Composable pipeline: a pass graph from flags, run serially or in
/// parallel over an artifact cache.
extern const cli::Command kPipelineCli;
int pipeline_main(std::string_view prog, const Argv& args);
/// Scenario-execution service: serve JSONL run requests until drained.
extern const cli::Command kServeCli;
int serve_main(std::string_view prog, const Argv& args);
/// Latency-percentile load generator against a serve endpoint.
extern const cli::Command kLoadCli;
int load_main(std::string_view prog, const Argv& args);

/// Refuse \p flag, which asks for the event log of scenario \p name,
/// when that scenario records none (the hospital family): a usage error
/// rather than an empty log and exit 0. An unknown name passes; the run
/// reports it. \throws cli::CliError
/// "<flag>: scenario '<name>' is hospital-family and records no event log".
void require_event_log(std::string_view flag, const std::string& name);

/// One `mcps` command: its option table and its driver.
struct Tool {
    const cli::Command* cli;
    int (*main)(std::string_view prog, const Argv& args);
};

/// Every command, in `mcps --help` order.
inline constexpr Tool kTools[] = {
    {&kRunCli, &run_main},         {&kTraceCli, &trace_main},
    {&kWardCli, &ward_main},       {&kFuzzCli, &fuzz_main},
    {&kAnalyzeCli, &analyze_main}, {&kPipelineCli, &pipeline_main},
    {&kServeCli, &serve_main},     {&kLoadCli, &load_main},
};

}  // namespace mcps::drivers
