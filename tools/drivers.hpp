/// \file drivers.hpp
/// \brief The CLI driver registry: every mcps tool as a callable.
///
/// Each driver is the complete implementation of one tool — argument
/// parsing, execution, output, exit code — parameterized only by the
/// invocation name \p prog (used in usage text and error prefixes) and
/// the argument vector (argv without the program name). The one `mcps`
/// binary dispatches `mcps <cmd> ...` to `<cmd>_main("mcps <cmd>", ...)`.
///
/// Exit-code contracts are each driver's own (documented in its .cpp);
/// all of them reserve 2 for usage errors.

#pragma once

#include <string_view>
#include <vector>

namespace mcps::drivers {

/// Scenario registry CLI (list/describe/run/selfcheck).
int run_main(std::string_view prog,
             const std::vector<std::string_view>& args);

/// Structured-trace CLI (run/inspect/diff/check/check-bench).
int trace_main(std::string_view prog,
               const std::vector<std::string_view>& args);

/// Ward campaign CLI (flag-style; --verify-serial/--verify-obs-jobs).
int ward_main(std::string_view prog,
              const std::vector<std::string_view>& args);

/// Scenario fuzzer CLI (fuzz and replay; the pca/xray mix or the
/// hospital family).
int fuzz_main(std::string_view prog,
              const std::vector<std::string_view>& args);

/// Model-level safety linter CLI.
int analyze_main(std::string_view prog,
                 const std::vector<std::string_view>& args);

/// Composable pipeline CLI: build a pass graph from flags, run it
/// serially or in parallel over an artifact cache, export artifacts,
/// report per-pass timing and cache traffic.
int pipeline_main(std::string_view prog,
                  const std::vector<std::string_view>& args);

/// Scenario-execution service: serve JSONL run requests until drained.
int serve_main(std::string_view prog,
               const std::vector<std::string_view>& args);

/// Latency-percentile load generator against a serve endpoint.
int load_main(std::string_view prog,
              const std::vector<std::string_view>& args);

}  // namespace mcps::drivers
