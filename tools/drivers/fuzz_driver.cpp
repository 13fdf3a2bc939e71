/// \file fuzz_driver.cpp
/// \brief Scenario fuzzer driver: fuzz, replay, and self-check modes
/// (see drivers.hpp).
///
/// Exit codes: 0 = success (no violations, or — with --expect-violation —
/// violations found, shrunk unless --no-shrink, and replayed
/// byte-identically), 1 = the run did not meet its expectation, 2 = usage
/// or I/O error.

#include <cstdint>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "../cli.hpp"
#include "../drivers.hpp"
#include "sim/hash.hpp"
#include "testkit/testkit.hpp"

namespace tk = mcps::testkit;
using mcps::cli::CliError;

namespace {

int replay_mode(const std::string& path) {
    const auto checker = tk::InvariantChecker::with_defaults();
    const tk::Repro repro = tk::load_repro(path);
    const auto result = tk::replay(repro, checker);
    std::cout << "repro: " << path << "\n"
              << "  workload:   " << tk::to_string(repro.kind);
    if (repro.weakened) {
        std::cout << (repro.kind == tk::WorkloadKind::kHospital
                          ? " (interlock-off storm hazard)"
                          : " (weakened fixture)");
    }
    std::cout << "\n"
              << "  seed/index: " << repro.seed << "/" << repro.index << "\n"
              << "  faults:     " << repro.faults.size() << "\n";
    if (repro.kind == tk::WorkloadKind::kHospital) {
        std::cout << "  spec:       "
                  << tk::ScenarioGenerator{repro.seed}
                         .hospital(repro.index, repro.weakened)
                         .to_text()
                  << "\n";
    }
    std::cout << "  fingerprint " << mcps::sim::hex64(result.fingerprint)
              << " ("
              << (result.byte_identical ? "byte-identical" : "MISMATCH")
              << ")\n";
    for (const auto& v : result.violations) {
        std::cout << "  violation: " << v.invariant << " @" << v.at_s
                  << "s: " << v.detail << "\n";
    }
    if (result.violations.empty()) {
        std::cout << "  no invariant violations reproduced\n";
        return 1;
    }
    return result.byte_identical ? 0 : 1;
}

}  // namespace

namespace mcps::drivers {

constexpr cli::Mode kModes[] = {{"--replay"}, {"--hospital"}};

constexpr cli::Option kOptions[] = {
    {"--scenarios", cli::count("N"), "--hospital",
     "scenarios to run, at least 1 (default 200)"},
    {"--seed", cli::count("N"), "--hospital", "master seed (default 42)"},
    {"--intensity", cli::number("X", 0, tk::kMaxFaultIntensity), "",
     "fault-plan intensity scale in [0, 100] (default 1.0)"},
    {"--jobs", cli::kJobs, "--hospital",
     "run scenarios over N worker threads (at most 256); the outcome is "
     "identical to --jobs 1"},
    {"--xray-fraction", cli::number("X", 0, 1), "",
     "fraction of x-ray workloads in [0, 1] (default 0.15)"},
    {"--weakened", cli::kSwitch, "", "fuzz the weakened-interlock fixture"},
    {"--hospital", cli::kSwitch, "--hospital",
     "fuzz the hospital family instead: random cohorts/knobs over the "
     "claimed-safe envelope (with --expect-violation: interlock-off storm "
     "hazards that must violate and replay byte-identically)"},
    {"--expect-violation", cli::kSwitch, "--hospital",
     "succeed only if a violation is found, replays byte-identically, and "
     "shrinks to a small fault plan"},
    {"--replay", cli::text("FILE"), "--replay",
     "replay one repro file (any workload) and report"},
    {"--repro-dir", cli::text("DIR"), "--hospital",
     "write repro files here (default: repros)"},
    {"--no-shrink", cli::kSwitch, "", "keep failing fault plans unshrunk"},
    {"--quiet", cli::kSwitch, "--hospital",
     "suppress per-failure progress output"},
};

const cli::Command kFuzzCli{"fuzz",
                            "scenario fuzzer: fuzz, replay, hospital modes",
                            kModes, kOptions};

int fuzz_main(std::string_view prog,
              const std::vector<std::string_view>& argv) {
    return cli::tool_main(prog, kFuzzCli, argv, [&](const cli::Parsed& p) {
        if (p.has("--replay")) return replay_mode(p.text("--replay"));
        tk::FuzzOptions opts;
        opts.scenarios = p.count("--scenarios", opts.scenarios);
        opts.seed = p.count("--seed", opts.seed);
        opts.fault_intensity = p.number("--intensity", opts.fault_intensity);
        opts.xray_fraction = p.number("--xray-fraction", opts.xray_fraction);
        opts.weakened = p.has("--weakened");
        opts.hospital = p.has("--hospital");
        opts.repro_dir = p.text("--repro-dir", "repros");
        opts.shrink = !p.has("--no-shrink");
        const unsigned jobs = p.count("--jobs", 1u);
        const bool expect_violation = p.has("--expect-violation");
        if (opts.scenarios == 0) {
            throw CliError{"--scenarios: a campaign runs at least 1 scenario"};
        }
        // The hospital self-check samples the interlock-off storm hazard.
        if (opts.hospital) opts.weakened = expect_violation;

        if (!p.has("--quiet")) {
            opts.log = [](const std::string& line) {
                std::cout << line << "\n";
            };
        }

        const auto outcome =
            tk::run_fuzz(opts, tk::InvariantChecker::with_defaults(), jobs);
        std::cout << "fuzz: " << outcome.scenarios_run << " scenarios (";
        if (opts.hospital) {
            std::cout << outcome.hospital_runs << " hospital";
        } else {
            std::cout << outcome.pca_runs << " pca, " << outcome.xray_runs
                      << " xray";
        }
        std::cout << "), seed " << opts.seed << ", "
                  << outcome.failures.size() << " violating\n";

        if (!expect_violation) {
            if (!outcome.clean()) {
                std::cout << "FAIL: invariant violations found (repro files "
                             "above replay them)\n";
                return 1;
            }
            std::cout << "OK: no invariant violations\n";
            return 0;
        }

        // Self-check mode: the weakened fixture (or the hospital hazard)
        // must fail, replay byte-identically, and shrink to a handful of
        // fault events; a hospital run may break nothing but the
        // expected deadline.
        if (outcome.clean()) {
            std::cout << "FAIL: expected an invariant violation, found none\n";
            return 1;
        }
        for (const auto& f : outcome.failures) {
            for (const auto& v : f.violations) {
                if (f.repro.kind == tk::WorkloadKind::kHospital &&
                    v.invariant != tk::kHospitalHazard) {
                    std::cout << "FAIL: scenario " << f.repro.index
                              << " broke " << v.invariant
                              << " besides the expected hazard\n";
                    return 1;
                }
            }
            if (!f.replay_byte_identical) {
                std::cout << "FAIL: repro for scenario " << f.repro.index
                          << " did not replay byte-identically\n";
                return 1;
            }
            if (opts.shrink && f.repro.faults.size() > 5) {
                std::cout << "FAIL: scenario " << f.repro.index
                          << " shrank only to " << f.repro.faults.size()
                          << " fault events (want <= 5)\n";
                return 1;
            }
        }
        std::cout << (opts.shrink ? "OK: violations found, shrunk, and "
                                    "replayed byte-identically\n"
                                  : "OK: violations found and replayed "
                                    "byte-identically\n");
        return 0;
    });
}

}  // namespace mcps::drivers
