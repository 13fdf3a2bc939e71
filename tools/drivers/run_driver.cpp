/// \file run_driver.cpp
/// \brief Scenario registry driver: list, describe and run registered
/// scenarios from one-line reproducible specs (see drivers.hpp).
///
/// Subcommands:
///   list        one line per registered scenario
///   describe    a scenario's knobs, domains and defaults
///   run         run a spec and print (or emit as JSON) its artifacts
///   selfcheck   registry invariants: every scenario runs, its spec
///               round-trips through both serializations, and a re-run
///               from the round-tripped spec reproduces the fingerprint
///
/// A spec is one line: `pca seed=42 minutes=160 demand=proxy`. `run`
/// accepts it either inline after `--spec` (quoted) or assembled from
/// the familiar flags (`--scenario`, `--seed`, `--minutes`, repeated
/// `--set key=value`). The spec echo in the output reproduces the run.
///
/// Exit codes: 0 = success, 1 = selfcheck failure, 2 = usage error.

#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "../cli.hpp"
#include "../drivers.hpp"
#include "obs/obs.hpp"
#include "scenario/scenario.hpp"
#include "sim/table.hpp"

namespace scenario = mcps::scenario;
using mcps::cli::CliError;
using mcps::cli::parse_u64;

namespace {

void usage(std::ostream& os, std::string_view prog) {
    os << "usage: " << prog
       << " <subcommand> [options]\n"
          "  list\n"
          "        one line per registered scenario.\n"
          "  describe SCENARIO\n"
          "        the scenario's knobs, value domains and defaults.\n"
          "  run --spec 'NAME [seed=N] [minutes=M] [key=value]...'\n"
          "  run --scenario NAME [--seed N] [--minutes M]\n"
          "      [--set key=value]... [--json PATH] [--events-out PATH]\n"
          "      [--quiet]\n"
          "        run one scenario; print the outcome table (or write\n"
          "        the artifacts as JSON to --json and the structured\n"
          "        event log as JSONL to --events-out; pca- and\n"
          "        xray-family scenarios only).\n"
          "  selfcheck\n"
          "        run every registered scenario for one sim-minute and\n"
          "        require spec round-trip + fingerprint reproduction.\n";
}

std::string knob_domain(const scenario::KnobInfo& k) {
    switch (k.kind) {
        case scenario::KnobInfo::Kind::kChoice: {
            std::string out;
            for (const auto& c : k.choices) {
                if (!out.empty()) out += "|";
                out += c;
            }
            return out;
        }
        case scenario::KnobInfo::Kind::kNumber: {
            char buf[64];
            std::snprintf(buf, sizeof buf, "[%g, %g]", k.lo, k.hi);
            return buf;
        }
        case scenario::KnobInfo::Kind::kCount: {
            char buf[64];
            std::snprintf(buf, sizeof buf, "1..%llu",
                          static_cast<unsigned long long>(k.max_count));
            return buf;
        }
    }
    return "?";
}

int cmd_list() {
    mcps::sim::Table t{{"scenario", "family", "minutes", "description"}};
    for (const auto& name : scenario::registry().names()) {
        const auto& info = scenario::registry().info(name);
        t.row()
            .cell(info.name)
            .cell(std::string{scenario::to_string(info.family)})
            .cell(static_cast<std::int64_t>(info.default_minutes))
            .cell(info.description);
    }
    t.print(std::cout, "registered scenarios");
    return 0;
}

int cmd_describe(const std::vector<std::string_view>& args,
                 std::string_view prog) {
    if (args.size() != 2) {
        throw CliError{"describe: expected exactly one SCENARIO"};
    }
    const auto& info = scenario::registry().info(args[1]);
    std::cout << info.name << " (" << scenario::to_string(info.family)
              << "-family, default " << info.default_minutes
              << " min): " << info.description << "\n\n";
    mcps::sim::Table t{{"knob", "domain", "description"}};
    for (const auto& k : info.knobs) {
        t.row().cell(k.name).cell(knob_domain(k)).cell(k.description);
    }
    t.print(std::cout, "knobs (spec overrides)");
    std::cout << "\nexample: " << prog << " run --spec '" << info.name
              << " seed=7 minutes=" << info.default_minutes << "'\n";
    return 0;
}

int cmd_run(const std::vector<std::string_view>& raw) {
    std::string spec_text;
    std::string name;
    std::string json_path;
    std::string events_path;
    bool quiet = false;
    std::uint64_t seed = 0, minutes = 0;
    bool have_seed = false, have_minutes = false;
    std::vector<std::string_view> sets;

    mcps::cli::Args args{std::vector<std::string_view>{raw.begin() + 1,
                                                       raw.end()}};
    while (!args.done()) {
        const auto arg = args.next();
        const auto value = [&] { return args.value(arg); };
        if (arg == "--spec") {
            spec_text = std::string{value()};
        } else if (arg == "--scenario") {
            name = std::string{value()};
        } else if (arg == "--seed") {
            seed = parse_u64(arg, value());
            have_seed = true;
        } else if (arg == "--minutes") {
            minutes = parse_u64(arg, value());
            have_minutes = true;
        } else if (arg == "--set") {
            sets.push_back(value());
        } else if (arg == "--json") {
            json_path = std::string{value()};
        } else if (arg == "--events-out") {
            events_path = std::string{value()};
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            throw CliError{"unknown option '" + std::string{arg} + "'"};
        }
    }
    if (spec_text.empty() == name.empty()) {
        throw CliError{"run: exactly one of --spec or --scenario is required"};
    }

    scenario::ScenarioSpec spec;
    if (!spec_text.empty()) {
        if (have_seed || have_minutes || !sets.empty()) {
            throw CliError{
                "run: --spec already carries seed/minutes/overrides; "
                "don't mix it with --seed/--minutes/--set"};
        }
        spec = scenario::parse_spec(spec_text);
    } else {
        spec = scenario::registry().default_spec(name);
        if (have_seed) spec.seed = seed;
        if (have_minutes) spec.minutes = minutes;
        for (const auto sv : sets) {
            const std::size_t eq = sv.find('=');
            if (eq == std::string_view::npos) {
                throw CliError{"--set: expected key=value, got '" +
                               std::string{sv} + "'"};
            }
            spec.set(sv.substr(0, eq), sv.substr(eq + 1));
        }
    }

    // Hospital runs do not feed the event log; refuse rather than write
    // an empty file and exit 0.
    if (const auto* info = scenario::registry().find(spec.name);
        !events_path.empty() && info != nullptr &&
        info->family == scenario::ScenarioFamily::kHospital) {
        throw CliError{"--events-out: scenario '" + spec.name +
                       "' is hospital-family and records no event log"};
    }

    mcps::obs::EventLog log;
    scenario::RunOptions run;
    if (!events_path.empty()) run.events = &log;
    const scenario::RunArtifacts art = scenario::registry().run(spec, run);

    if (!events_path.empty()) {
        mcps::cli::write_file(
            "--events-out", events_path,
            [&](std::ostream& out) { mcps::obs::write_jsonl(log, out); });
        if (!quiet) {
            std::cout << "event log: " << events_path << " (" << log.size()
                      << " events)\n";
        }
    }
    if (!json_path.empty()) {
        mcps::cli::write_file("--json", json_path, [&](std::ostream& out) {
            art.write_json(out);
        });
        if (!quiet) std::cout << "artifacts: " << json_path << "\n";
    }
    if (!quiet) {
        std::cout << "spec: " << art.spec.to_text() << "\n";
        art.print(std::cout);
    }
    return 0;
}

/// Registry invariants, exercised scenario by scenario. One sim-minute
/// keeps the whole sweep inside a ctest-friendly budget.
int cmd_selfcheck() {
    bool ok = true;
    for (const auto& name : scenario::registry().names()) {
        scenario::ScenarioSpec spec =
            scenario::registry().default_spec(name);
        spec.minutes = 1;

        const auto first = scenario::registry().run(spec);
        const auto text_rt = scenario::parse_spec(first.spec.to_text());
        const auto json_rt = scenario::parse_spec_json(first.spec.to_json());
        const auto again = scenario::registry().run(text_rt);

        std::string verdict = "ok";
        if (text_rt != first.spec || json_rt != first.spec) {
            verdict = "SPEC ROUND-TRIP MISMATCH";
            ok = false;
        } else if (again.fingerprint != first.fingerprint) {
            verdict = "FINGERPRINT MISMATCH";
            ok = false;
        }
        std::cout << name << ": " << first.fingerprint_hex() << " "
                  << verdict << "\n";
    }
    std::cout << (ok ? "OK: registry selfcheck passed\n"
                     : "FAIL: registry selfcheck failed\n");
    return ok ? 0 : 1;
}

}  // namespace

namespace mcps::drivers {

int run_main(std::string_view prog,
             const std::vector<std::string_view>& args) {
    return cli::tool_main(
        prog, [&](std::ostream& os) { usage(os, prog); },
        [&]() -> int {
            if (args.empty() || args[0] == "--help" || args[0] == "-h") {
                usage(std::cout, prog);
                return args.empty() ? 2 : 0;
            }
            const auto cmd = args[0];
            if (cmd == "list") return cmd_list();
            if (cmd == "describe") return cmd_describe(args, prog);
            if (cmd == "run") return cmd_run(args);
            if (cmd == "selfcheck") return cmd_selfcheck();
            throw CliError{"unknown subcommand '" + std::string{cmd} + "'"};
        });
}

}  // namespace mcps::drivers
