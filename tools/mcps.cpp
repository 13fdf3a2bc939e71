/// \file mcps.cpp
/// \brief The mcps entry point: one binary, every driver.
///
///   mcps run       scenario registry (list/describe/run/selfcheck)
///   mcps trace     structured traces (run/inspect/diff/check/check-bench)
///   mcps ward      ward-scale parallel campaigns
///   mcps fuzz      scenario fuzzer (fuzz/replay/hospital)
///   mcps analyze   model-level safety linter
///   mcps pipeline  composable pass pipeline over cached artifacts
///   mcps serve     scenario-execution service (JSONL over TCP/Unix)
///   mcps load      load generator against a serve endpoint
///
/// Each subcommand is one driver of tools/drivers.hpp, invoked with the
/// program name "mcps <cmd>". Exit code 2 = unknown command.

#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "drivers.hpp"

namespace {

void usage(std::ostream& os) {
    os << "usage: mcps <command> [options]\n"
          "  run        scenario registry: list, describe, run, selfcheck\n"
          "  trace      structured traces: run, inspect, diff, check,\n"
          "             check-bench\n"
          "  ward       ward-scale parallel campaign engine\n"
          "  fuzz       scenario fuzzer: fuzz, replay, hospital modes\n"
          "  analyze    model-level safety linter\n"
          "  pipeline   composable pass pipeline over cached artifacts\n"
          "  serve      scenario-execution service (JSONL over TCP/Unix)\n"
          "  load       load generator against a serve endpoint\n"
          "\n"
          "`mcps <command> --help` shows the command's options.\n";
}

}  // namespace

int main(int argc, char** argv) {
    const std::vector<std::string_view> args{argv + 1, argv + argc};
    if (args.empty() || args[0] == "--help" || args[0] == "-h") {
        usage(std::cout);
        return args.empty() ? 2 : 0;
    }
    const std::string_view cmd = args[0];
    const std::vector<std::string_view> rest{args.begin() + 1, args.end()};
    const std::string prog = "mcps " + std::string{cmd};

    if (cmd == "run") return mcps::drivers::run_main(prog, rest);
    if (cmd == "trace") return mcps::drivers::trace_main(prog, rest);
    if (cmd == "ward") return mcps::drivers::ward_main(prog, rest);
    if (cmd == "fuzz") return mcps::drivers::fuzz_main(prog, rest);
    if (cmd == "analyze") return mcps::drivers::analyze_main(prog, rest);
    if (cmd == "pipeline") return mcps::drivers::pipeline_main(prog, rest);
    if (cmd == "serve") return mcps::drivers::serve_main(prog, rest);
    if (cmd == "load") return mcps::drivers::load_main(prog, rest);

    std::cerr << "mcps: unknown command '" << cmd << "'\n";
    usage(std::cerr);
    return 2;
}
