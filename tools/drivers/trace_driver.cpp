/// \file trace_driver.cpp
/// \brief Structured-trace driver: run scenarios with event tracing,
/// export and inspect the resulting logs, and byte-diff them against
/// committed golden traces (see drivers.hpp).
///
/// Subcommands:
///   run         run a scenario and emit its event log (JSONL / Chrome)
///   inspect     summarize a JSONL event log
///   diff        byte-diff two JSONL event logs
///   check       re-run a scenario and byte-diff against a golden file
///   check-bench validate a bench --json report against the schema
///
/// The golden-trace contract: `check` re-runs the named scenario with the
/// given seed and duration and requires the serialized JSONL to be
/// byte-identical to the committed file. Any change to event emission,
/// scheduling order or number formatting trips the diff. `--update`
/// rewrites the golden after an intentional change.
///
/// Exit codes: 0 = success, 1 = diff/check/validation failure,
/// 2 = usage or I/O error.

#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "../cli.hpp"
#include "../drivers.hpp"
#include "obs/obs.hpp"
#include "scenario/scenario.hpp"
#include "sim/hash.hpp"
#include "sim/table.hpp"

namespace obs = mcps::obs;
namespace scenario = mcps::scenario;
using mcps::cli::CliError;
using mcps::cli::parse_u64;

namespace {

void usage(std::ostream& os, std::string_view prog) {
    os << "usage: " << prog
       << " <subcommand> [options]\n"
          "  run --scenario NAME [--seed N] [--minutes M]\n"
          "      [--out PATH] [--chrome PATH] [--no-bus] [--quiet]\n"
          "        run a registered scenario (see `mcps run list`) with\n"
          "        structured tracing; write the event log as JSONL to\n"
          "        --out (default stdout) and optionally as a Chrome\n"
          "        trace_event file to --chrome. --no-bus drops bus\n"
          "        publish/deliver/drop events.\n"
          "  inspect FILE\n"
          "        summarize a JSONL event log (counts per kind, time\n"
          "        range, sources).\n"
          "  diff A B\n"
          "        byte-diff two JSONL event logs; exit 1 on difference.\n"
          "  check --scenario NAME --golden FILE [--seed N]\n"
          "      [--minutes M] [--no-bus] [--update]\n"
          "        re-run the scenario and byte-diff its JSONL against\n"
          "        the golden file; --update rewrites the golden.\n"
          "  check-bench FILE\n"
          "        validate a bench --json report against the schema.\n";
}

struct TraceOptions {
    std::string scenario;
    std::uint64_t seed = 42;
    std::uint64_t minutes = 30;
    bool no_bus = false;
};

/// Run the named scenario with tracing attached. The configurations are
/// the registry's canonical presets (not exposed flag-by-flag): golden
/// traces must correspond to one reproducible command line.
obs::EventLog run_traced_scenario(const TraceOptions& opt) {
    obs::EventLog log;
    scenario::ScenarioSpec spec;
    spec.name = opt.scenario;
    spec.seed = opt.seed;
    spec.minutes = opt.minutes;
    scenario::RunOptions run;
    run.events = &log;
    try {
        (void)scenario::registry().run(spec, run);
    } catch (const scenario::SpecError& e) {
        throw CliError{e.what()};
    }
    return log;
}

obs::EventLog drop_bus_events(const obs::EventLog& in) {
    obs::EventLog out;
    out.reserve(in.size());
    for (const auto& e : in.events()) {
        if (!obs::is_bus_kind(e.kind)) {
            out.emit(e.kind, e.time, in.symbol(e.source), in.symbol(e.detail),
                     e.value);
        }
    }
    return out;
}

std::string serialize(const obs::EventLog& log) {
    std::string text;
    obs::write_jsonl(log, text);
    return text;
}

std::string read_file(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    if (!in) throw CliError{"cannot open '" + path + "' for reading"};
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/// Line-oriented byte diff. Returns true when identical; otherwise
/// prints the first divergence (1-based line number, both lines).
bool diff_texts(const std::string& a_name, const std::string& a,
                const std::string& b_name, const std::string& b,
                std::ostream& os) {
    if (a == b) return true;
    std::istringstream as{a}, bs{b};
    std::string al, bl;
    std::size_t line = 0;
    while (true) {
        ++line;
        const bool ag = static_cast<bool>(std::getline(as, al));
        const bool bg = static_cast<bool>(std::getline(bs, bl));
        if (!ag && !bg) {
            // Same lines but different bytes (trailing newline etc.).
            os << "traces differ in trailing bytes (" << a.size() << " vs "
               << b.size() << " bytes)\n";
            return false;
        }
        if (ag != bg) {
            os << "traces differ at line " << line << ": "
               << (ag ? b_name : a_name) << " ends early\n";
            if (ag) os << "  " << a_name << ": " << al << "\n";
            if (bg) os << "  " << b_name << ": " << bl << "\n";
            return false;
        }
        if (al != bl) {
            os << "traces differ at line " << line << ":\n"
               << "  " << a_name << ": " << al << "\n"
               << "  " << b_name << ": " << bl << "\n";
            return false;
        }
    }
}

TraceOptions parse_run_options(const std::vector<std::string_view>& args,
                               std::size_t start, std::string* out_path,
                               std::string* chrome_path, std::string* golden,
                               bool* update, bool* quiet) {
    TraceOptions opt;
    mcps::cli::Args cursor{
        std::vector<std::string_view>{args.begin() + static_cast<std::ptrdiff_t>(start),
                                      args.end()}};
    while (!cursor.done()) {
        const auto arg = cursor.next();
        const auto value = [&] { return cursor.value(arg); };
        if (arg == "--scenario") {
            opt.scenario = std::string{value()};
        } else if (arg == "--seed") {
            opt.seed = parse_u64(arg, value());
        } else if (arg == "--minutes") {
            opt.minutes = parse_u64(arg, value());
        } else if (arg == "--no-bus") {
            opt.no_bus = true;
        } else if (arg == "--out" && out_path) {
            *out_path = std::string{value()};
        } else if (arg == "--chrome" && chrome_path) {
            *chrome_path = std::string{value()};
        } else if (arg == "--golden" && golden) {
            *golden = std::string{value()};
        } else if (arg == "--update" && update) {
            *update = true;
        } else if (arg == "--quiet" && quiet) {
            *quiet = true;
        } else {
            throw CliError{"unknown option '" + std::string{arg} + "'"};
        }
    }
    if (opt.scenario.empty()) {
        throw CliError{"--scenario is required"};
    }
    return opt;
}

int cmd_run(const std::vector<std::string_view>& args) {
    std::string out_path, chrome_path;
    bool quiet = false;
    const TraceOptions opt = parse_run_options(args, 1, &out_path, &chrome_path,
                                             nullptr, nullptr, &quiet);
    obs::EventLog log = run_traced_scenario(opt);
    if (opt.no_bus) log = drop_bus_events(log);

    if (out_path.empty()) {
        obs::write_jsonl(log, std::cout);
    } else {
        mcps::cli::write_file("--out", out_path, [&](std::ostream& out) {
            obs::write_jsonl(log, out);
        });
        if (!quiet) {
            std::cout << "event log: " << out_path << " (" << log.size()
                      << " events)\n";
        }
    }
    if (!chrome_path.empty()) {
        mcps::cli::write_file(
            "--chrome", chrome_path,
            [&](std::ostream& out) { obs::write_chrome_trace(log, out); });
        if (!quiet) std::cout << "chrome trace: " << chrome_path << "\n";
    }
    return 0;
}

int cmd_inspect(const std::vector<std::string_view>& args) {
    if (args.size() != 2) throw CliError{"inspect: expected exactly one FILE"};
    const std::string path{args[1]};
    std::ifstream in{path, std::ios::binary};
    if (!in) throw CliError{"cannot open '" + path + "' for reading"};
    const obs::EventLog log = obs::read_jsonl(in);

    std::map<obs::EventKind, std::uint64_t> by_kind;
    std::map<std::string, std::uint64_t> by_source;
    for (const auto& e : log.events()) {
        ++by_kind[e.kind];
        ++by_source[std::string{log.symbol(e.source)}];
    }

    std::cout << path << ": " << log.size() << " events";
    if (!log.empty()) {
        std::cout << ", t = [" << log.events().front().time.ticks() << " us, "
                  << log.events().back().time.ticks() << " us]";
    }
    std::cout << ", fingerprint " << mcps::sim::hex64(log.fingerprint())
              << "\n";

    mcps::sim::Table kinds{{"kind", "count"}};
    for (const auto& [kind, count] : by_kind) {
        kinds.row().cell(std::string{obs::to_string(kind)}).cell(count);
    }
    kinds.print(std::cout, "events by kind");
    std::cout << '\n';

    mcps::sim::Table sources{{"source", "count"}};
    for (const auto& [source, count] : by_source) {
        sources.row().cell(source).cell(count);
    }
    sources.print(std::cout, "events by source");
    return 0;
}

int cmd_diff(const std::vector<std::string_view>& args) {
    if (args.size() != 3) throw CliError{"diff: expected exactly two files"};
    const std::string a_path{args[1]}, b_path{args[2]};
    const std::string a = read_file(a_path), b = read_file(b_path);
    if (diff_texts(a_path, a, b_path, b, std::cout)) {
        std::cout << "traces identical (" << a.size() << " bytes)\n";
        return 0;
    }
    return 1;
}

int cmd_check(const std::vector<std::string_view>& args) {
    std::string golden;
    bool update = false;
    const TraceOptions opt = parse_run_options(args, 1, nullptr, nullptr,
                                             &golden, &update, nullptr);
    if (golden.empty()) throw CliError{"check: --golden is required"};

    obs::EventLog log = run_traced_scenario(opt);
    if (opt.no_bus) log = drop_bus_events(log);
    const std::string actual = serialize(log);

    if (update) {
        mcps::cli::write_file("--golden", golden,
                              [&](std::ostream& out) { out << actual; });
        std::cout << "golden updated: " << golden << " (" << log.size()
                  << " events, " << actual.size() << " bytes)\n";
        return 0;
    }
    const std::string expected = read_file(golden);
    if (diff_texts(golden, expected, "actual", actual, std::cout)) {
        std::cout << "OK: " << golden << " matches (" << log.size()
                  << " events, " << actual.size() << " bytes)\n";
        return 0;
    }
    std::cout << "golden mismatch for scenario '" << opt.scenario
              << "' (seed " << opt.seed << ", " << opt.minutes
              << " min); run with --update after an intentional change\n";
    return 1;
}

int cmd_check_bench(const std::vector<std::string_view>& args) {
    if (args.size() != 2) {
        throw CliError{"check-bench: expected exactly one FILE"};
    }
    const std::string path{args[1]};
    std::ifstream in{path, std::ios::binary};
    if (!in) throw CliError{"cannot open '" + path + "' for reading"};
    std::string error;
    if (obs::validate_bench_json(in, error)) {
        std::cout << "OK: " << path << " conforms to the bench schema\n";
        return 0;
    }
    std::cout << "FAIL: " << path << ": " << error << "\n";
    return 1;
}

}  // namespace

namespace mcps::drivers {

int trace_main(std::string_view prog,
               const std::vector<std::string_view>& args) {
    return cli::tool_main(
        prog, [&](std::ostream& os) { usage(os, prog); },
        [&]() -> int {
            if (args.empty() || args[0] == "--help" || args[0] == "-h") {
                usage(std::cout, prog);
                return args.empty() ? 2 : 0;
            }
            const auto cmd = args[0];
            if (cmd == "run") return cmd_run(args);
            if (cmd == "inspect") return cmd_inspect(args);
            if (cmd == "diff") return cmd_diff(args);
            if (cmd == "check") return cmd_check(args);
            if (cmd == "check-bench") return cmd_check_bench(args);
            throw CliError{"unknown subcommand '" + std::string{cmd} + "'"};
        });
}

}  // namespace mcps::drivers
