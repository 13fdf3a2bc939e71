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
using mcps::cli::parse_double;
using mcps::cli::parse_u64;

namespace {

void usage(std::ostream& os, std::string_view prog) {
    os << "usage: " << prog
       << " [options]\n"
          "  --scenarios N        scenarios to run, at least 1 (default 200)\n"
          "  --seed N             master seed (default 42)\n"
          "  --intensity X        fault-plan intensity scale in [0, 100]\n"
          "                       (default 1.0)\n"
          "  --jobs N             run scenarios over N worker threads (at\n"
          "                       most 256); the outcome is identical to\n"
          "                       --jobs 1\n"
          "  --xray-fraction X    fraction of x-ray workloads in [0, 1]\n"
          "                       (default 0.15)\n"
          "  --weakened           fuzz the weakened-interlock fixture\n"
          "  --hospital           fuzz the hospital family instead: random\n"
          "                       cohorts/knobs over the claimed-safe\n"
          "                       envelope (with --expect-violation:\n"
          "                       interlock-off storm hazards that must\n"
          "                       violate and replay byte-identically);\n"
          "                       --weakened, --intensity, --xray-fraction\n"
          "                       and --no-shrink are refused\n"
          "  --expect-violation   succeed only if a violation is found,\n"
          "                       replays byte-identically, and shrinks to\n"
          "                       a small fault plan\n"
          "  --replay FILE        replay one repro file (any workload) and\n"
          "                       report; every other flag is refused\n"
          "  --repro-dir DIR      write repro files here (default: repros)\n"
          "  --no-shrink          keep failing fault plans unshrunk\n"
          "  --quiet              suppress per-failure progress output\n"
          "  --help               this text\n";
}

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

int fuzz_main(std::string_view prog,
              const std::vector<std::string_view>& argv) {
    tk::FuzzOptions opts;
    opts.repro_dir = "repros";
    unsigned jobs = 1;
    bool expect_violation = false;
    bool quiet = false;
    std::string replay_path;
    // The last flag given that only the pca/xray campaign honours.
    std::string_view pca_only_flag;
    // The last flag given that only a campaign honours: all but --replay.
    std::string_view campaign_flag;

    return cli::tool_main(
        prog, [&](std::ostream& os) { usage(os, prog); },
        [&]() -> int {
        cli::Args args{argv};
        while (!args.done()) {
            const auto arg = args.next();
            const auto value = [&] { return args.value(arg); };
            if (arg != "--replay") campaign_flag = arg;
            if (arg == "--scenarios") {
                opts.scenarios = parse_u64(arg, value());
            } else if (arg == "--seed") {
                opts.seed = parse_u64(arg, value());
            } else if (arg == "--intensity") {
                opts.fault_intensity = parse_double(arg, value());
                pca_only_flag = arg;
            } else if (arg == "--jobs") {
                jobs = cli::parse_jobs(arg, value());
            } else if (arg == "--xray-fraction") {
                opts.xray_fraction = parse_double(arg, value());
                pca_only_flag = arg;
            } else if (arg == "--weakened") {
                opts.weakened = true;
                pca_only_flag = arg;
            } else if (arg == "--hospital") {
                opts.hospital = true;
            } else if (arg == "--expect-violation") {
                expect_violation = true;
            } else if (arg == "--replay") {
                replay_path = std::string{value()};
            } else if (arg == "--repro-dir") {
                opts.repro_dir = std::string{value()};
            } else if (arg == "--no-shrink") {
                opts.shrink = false;
                pca_only_flag = arg;
            } else if (arg == "--quiet") {
                quiet = true;
            } else if (arg == "--help" || arg == "-h") {
                usage(std::cout, prog);
                return 0;
            } else {
                throw CliError{"unknown option '" + std::string{arg} + "'"};
            }
        }

        if (!replay_path.empty()) {
            if (!campaign_flag.empty()) {
                throw CliError{std::string{campaign_flag} +
                               ": not supported with --replay"};
            }
            return replay_mode(replay_path);
        }
        if (opts.hospital && !pca_only_flag.empty()) {
            throw CliError{std::string{pca_only_flag} +
                           ": not supported with --hospital"};
        }
        if (opts.scenarios == 0) {
            throw CliError{"--scenarios: a campaign runs at least 1 scenario"};
        }
        // The hospital self-check samples the interlock-off storm hazard.
        if (opts.hospital) opts.weakened = expect_violation;

        if (!quiet) {
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
