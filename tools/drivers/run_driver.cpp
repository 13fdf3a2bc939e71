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

namespace {

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

int cmd_describe(const mcps::cli::Parsed& p, std::string_view prog) {
    if (p.positionals.size() != 1) {
        throw CliError{"describe: expected exactly one SCENARIO"};
    }
    const auto& info = scenario::registry().info(p.positionals[0]);
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

int cmd_run(const mcps::cli::Parsed& p) {
    const std::string spec_text = p.text("--spec");
    const std::string name = p.text("--scenario");
    const std::string json_path = p.text("--json");
    const std::string events_path = p.text("--events-out");
    const bool quiet = p.has("--quiet");
    const std::vector<std::string> sets = p.all("--set");
    if (spec_text.empty() == name.empty()) {
        throw CliError{"run: exactly one of --spec or --scenario is required"};
    }

    scenario::ScenarioSpec spec;
    if (!spec_text.empty()) {
        if (p.has("--seed") || p.has("--minutes") || !sets.empty()) {
            throw CliError{
                "run: --spec already carries seed/minutes/overrides; "
                "don't mix it with --seed/--minutes/--set"};
        }
        spec = scenario::parse_spec(spec_text);
    } else {
        spec = scenario::registry().default_spec(name);
        spec.seed = p.count("--seed", spec.seed);
        spec.minutes = p.count("--minutes", spec.minutes);
        for (const std::string_view sv : sets) {
            const std::size_t eq = sv.find('=');
            if (eq == std::string_view::npos) {
                throw CliError{"--set: expected key=value, got '" +
                               std::string{sv} + "'"};
            }
            spec.set(sv.substr(0, eq), sv.substr(eq + 1));
        }
    }

    if (!events_path.empty()) {
        mcps::drivers::require_event_log("--events-out", spec.name);
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

void require_event_log(std::string_view flag, const std::string& name) {
    if (const auto* info = scenario::registry().find(name);
        info != nullptr && !info->records_event_log()) {
        throw CliError{std::string{flag} + ": scenario '" + name +
                       "' is hospital-family and records no event log"};
    }
}

constexpr cli::Mode kModes[] = {
    {"list", "", "one line per registered scenario."},
    {"describe", "SCENARIO",
     "the scenario's knobs, value domains and defaults."},
    {"run", "",
     "run one scenario, given as one --spec line or as --scenario with "
     "--seed, --minutes and --set; print the outcome table (or write the "
     "artifacts as JSON to --json and the structured event log as JSONL "
     "to --events-out; pca- and xray-family scenarios only)."},
    {"selfcheck", "",
     "run every registered scenario for one sim-minute and require spec "
     "round-trip + fingerprint reproduction."},
};

constexpr cli::Option kOptions[] = {
    {"--spec", cli::text("'NAME [seed=N] [minutes=M] [key=value]...'"),
     "run", "the whole run as one spec line"},
    {"--scenario", cli::text("NAME"), "run",
     "a registered scenario, from its default spec"},
    {"--seed", cli::count("N"), "run", "override the spec's seed"},
    {"--minutes", cli::count("M"), "run",
     "override the spec's simulated minutes"},
    {"--set", cli::text("KEY=VALUE"), "run",
     "override one knob (repeatable)"},
    {"--json", cli::kOutPath, "run", "write the artifacts as JSON"},
    {"--events-out", cli::kOutPath, "run",
     "write the structured event log as JSONL"},
    {"--quiet", cli::kSwitch, "run", "print nothing"},
};

const cli::Command kRunCli{
    "run", "scenario registry: list, describe, run, selfcheck", kModes,
    kOptions};

int run_main(std::string_view prog,
             const std::vector<std::string_view>& args) {
    return cli::tool_main(prog, kRunCli, args, [&](const cli::Parsed& p) {
        if (p.mode == "list") return cmd_list();
        if (p.mode == "describe") return cmd_describe(p, prog);
        if (p.mode == "run") return cmd_run(p);
        return cmd_selfcheck();
    });
}

}  // namespace mcps::drivers
