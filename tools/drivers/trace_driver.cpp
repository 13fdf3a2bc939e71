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

namespace {

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

constexpr std::uint64_t kSeed = 42, kMinutes = 30;

/// Run the --scenario with tracing attached (without bus events under
/// --no-bus). The configurations are the registry's canonical presets
/// (not exposed flag-by-flag): golden traces must correspond to one
/// reproducible command line.
obs::EventLog run_traced_scenario(const mcps::cli::Parsed& p) {
    scenario::ScenarioSpec spec;
    spec.name = p.text("--scenario");
    spec.seed = p.count("--seed", kSeed);
    spec.minutes = p.count("--minutes", kMinutes);
    if (spec.name.empty()) throw CliError{"--scenario is required"};
    mcps::drivers::require_event_log("--scenario", spec.name);
    obs::EventLog log;
    scenario::RunOptions run;
    run.events = &log;
    try {
        (void)scenario::registry().run(spec, run);
    } catch (const scenario::SpecError& e) {
        throw CliError{e.what()};
    }
    if (p.has("--no-bus")) return drop_bus_events(log);
    return log;
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

int cmd_run(const mcps::cli::Parsed& p) {
    const std::string out_path = p.text("--out");
    const std::string chrome_path = p.text("--chrome");
    const bool quiet = p.has("--quiet");
    const obs::EventLog log = run_traced_scenario(p);

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

int cmd_inspect(const mcps::cli::Parsed& p) {
    if (p.positionals.size() != 1) {
        throw CliError{"inspect: expected exactly one FILE"};
    }
    const std::string path{p.positionals[0]};
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

int cmd_diff(const mcps::cli::Parsed& p) {
    if (p.positionals.size() != 2) {
        throw CliError{"diff: expected exactly two files"};
    }
    const std::string a_path{p.positionals[0]}, b_path{p.positionals[1]};
    const std::string a = read_file(a_path), b = read_file(b_path);
    if (diff_texts(a_path, a, b_path, b, std::cout)) {
        std::cout << "traces identical (" << a.size() << " bytes)\n";
        return 0;
    }
    return 1;
}

int cmd_check(const mcps::cli::Parsed& p) {
    const std::string golden = p.text("--golden");
    if (golden.empty()) throw CliError{"check: --golden is required"};
    const obs::EventLog log = run_traced_scenario(p);
    const std::string actual = serialize(log);

    if (p.has("--update")) {
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
    std::cout << "golden mismatch for scenario '" << p.text("--scenario")
              << "' (seed " << p.count("--seed", kSeed) << ", "
              << p.count("--minutes", kMinutes)
              << " min); run with --update after an intentional change\n";
    return 1;
}

int cmd_check_bench(const mcps::cli::Parsed& p) {
    if (p.positionals.size() != 1) {
        throw CliError{"check-bench: expected exactly one FILE"};
    }
    const std::string path{p.positionals[0]};
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

constexpr cli::Mode kModes[] = {
    {"run", "",
     "run a registered scenario (see `mcps run list`) with structured "
     "tracing; write the event log as JSONL to --out (default stdout) and "
     "optionally as a Chrome trace_event file to --chrome."},
    {"inspect", "FILE",
     "summarize a JSONL event log (counts per kind, time range, sources)."},
    {"diff", "A B", "byte-diff two JSONL event logs; exit 1 on difference."},
    {"check", "",
     "re-run the scenario and byte-diff its JSONL against the --golden "
     "file; --update rewrites the golden."},
    {"check-bench", "FILE",
     "validate a bench --json report against the schema."},
};

constexpr cli::Option kOptions[] = {
    {"--scenario", cli::text("NAME"), "run check",
     "the registered scenario to run (required)"},
    {"--seed", cli::count("N"), "run check", "seed (default 42)"},
    {"--minutes", cli::count("M"), "run check",
     "simulated minutes (default 30)"},
    {"--no-bus", cli::kSwitch, "run check",
     "drop bus publish/deliver/drop events"},
    {"--out", cli::kOutPath, "run", "write the JSONL event log here"},
    {"--chrome", cli::kOutPath, "run", "also write a Chrome trace_event file"},
    {"--quiet", cli::kSwitch, "run", "print nothing about the written files"},
    {"--golden", cli::text("FILE"), "check",
     "the committed JSONL to compare against (required)"},
    {"--update", cli::kSwitch, "check",
     "rewrite the golden file instead of comparing"},
};

const cli::Command kTraceCli{
    "trace", "structured traces: run, inspect, diff, check, check-bench",
    kModes, kOptions};

int trace_main(std::string_view prog,
               const std::vector<std::string_view>& args) {
    return cli::tool_main(prog, kTraceCli, args, [&](const cli::Parsed& p) {
        if (p.mode == "run") return cmd_run(p);
        if (p.mode == "inspect") return cmd_inspect(p);
        if (p.mode == "diff") return cmd_diff(p);
        if (p.mode == "check") return cmd_check(p);
        return cmd_check_bench(p);
    });
}

}  // namespace mcps::drivers
