/// \file ward_driver.cpp
/// \brief Ward campaign driver (see drivers.hpp).
///
/// Runs N patient scenarios over `--jobs` worker threads (shards mapped
/// through sim::parallel_map) and prints (or emits as JSON) the
/// ward-level aggregate report. `--verify-serial`
/// re-runs the campaign single-threaded and requires the deterministic
/// ward fingerprint to match — the engine's core promise.
///
/// Exit codes: 0 = success, 1 = --verify-serial fingerprint mismatch,
/// 2 = usage or I/O error.

#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "../cli.hpp"
#include "../drivers.hpp"
#include "obs/obs.hpp"
#include "sim/hash.hpp"
#include "ward/ward.hpp"

namespace ward = mcps::ward;
using mcps::cli::CliError;
using mcps::cli::parse_double;
using mcps::cli::parse_u64;

namespace {

void usage(std::ostream& os, std::string_view prog) {
    os << "usage: " << prog
       << " [options]\n"
          "  --patients N       scenarios to run (default 64)\n"
          "  --jobs N           worker threads (default 1, at most 256)\n"
          "  --shards N         reduction shards (default 64; fixes the\n"
          "                     merge order, so keep it constant when\n"
          "                     comparing runs)\n"
          "  --mix SPEC         workload weights, e.g. pca=0.7,xray=0.15,\n"
          "                     ward=0.15 (normalized; default shown;\n"
          "                     hospital=X embeds smoke-sized\n"
          "                     hospital-small population runs)\n"
          "  --seed N           master seed (default 42)\n"
          "  --intensity X      fault-plan intensity for PCA-family\n"
          "                     scenarios (default 0 = no injected faults)\n"
          "  --json PATH        write the machine-readable report to PATH\n"
          "  --events-out PATH  write the campaign's merged structured\n"
          "                     event log as JSONL to PATH\n"
          "  --metrics-out PATH write the campaign's metrics registry as\n"
          "                     JSON to PATH\n"
          "  --verify-serial    also run with jobs=1 and require an\n"
          "                     identical ward fingerprint\n"
          "  --verify-obs-jobs LIST\n"
          "                     run the campaign once per job count in the\n"
          "                     comma-separated LIST (e.g. 1,4,8) and\n"
          "                     require bit-identical event logs, metrics\n"
          "                     and report fingerprints across all of them\n"
          "  --quiet            suppress the report tables\n"
          "  --help             this text\n";
}

std::vector<unsigned> parse_jobs_list(std::string_view flag,
                                      std::string_view v) {
    std::vector<unsigned> jobs =
        mcps::cli::parse_unsigned_list(flag, v, mcps::sim::kMaxJobs);
    if (jobs.size() < 2) {
        throw CliError{std::string{flag} +
                       ": need at least two job counts to compare"};
    }
    return jobs;
}

}  // namespace

namespace mcps::drivers {

int ward_main(std::string_view prog,
              const std::vector<std::string_view>& argv) {
    ward::WardConfig cfg;
    bool verify_serial = false;
    bool quiet = false;
    std::string json_path;
    std::string events_path;
    std::string metrics_path;
    std::vector<unsigned> verify_obs_jobs;

    return cli::tool_main(
        prog, [&](std::ostream& os) { usage(os, prog); },
        [&]() -> int {
        cli::Args args{argv};
        while (!args.done()) {
            const auto arg = args.next();
            const auto value = [&] { return args.value(arg); };
            if (arg == "--patients") {
                cfg.patients =
                    static_cast<std::size_t>(parse_u64(arg, value()));
            } else if (arg == "--jobs") {
                cfg.jobs = cli::parse_jobs(arg, value());
            } else if (arg == "--shards") {
                cfg.shards =
                    static_cast<std::size_t>(parse_u64(arg, value()));
            } else if (arg == "--mix") {
                cfg.mix = ward::parse_mix(value());
            } else if (arg == "--seed") {
                cfg.seed = parse_u64(arg, value());
            } else if (arg == "--intensity") {
                cfg.fault_intensity = parse_double(arg, value());
            } else if (arg == "--json") {
                json_path = std::string{value()};
            } else if (arg == "--events-out") {
                events_path = std::string{value()};
            } else if (arg == "--metrics-out") {
                metrics_path = std::string{value()};
            } else if (arg == "--verify-obs-jobs") {
                verify_obs_jobs = parse_jobs_list(arg, value());
            } else if (arg == "--verify-serial") {
                verify_serial = true;
            } else if (arg == "--quiet") {
                quiet = true;
            } else if (arg == "--help" || arg == "-h") {
                usage(std::cout, prog);
                return 0;
            } else {
                throw CliError{"unknown option '" + std::string{arg} + "'"};
            }
        }

        const ward::WardEngine engine{cfg};
        const auto checker = mcps::testkit::InvariantChecker::with_defaults();
        const bool want_obs = !events_path.empty() || !metrics_path.empty();
        ward::WardObservation obsv;
        const auto report = engine.run(checker, want_obs ? &obsv : nullptr);
        if (!quiet) report.print(std::cout);

        if (!events_path.empty()) {
            cli::write_file("--events-out", events_path,
                            [&](std::ostream& out) {
                                mcps::obs::write_jsonl(obsv.events, out);
                            });
            if (!quiet) {
                std::cout << "event log: " << events_path << " ("
                          << obsv.events.size() << " events)\n";
            }
        }
        if (!metrics_path.empty()) {
            cli::write_file(
                "--metrics-out", metrics_path,
                [&](std::ostream& out) { obsv.metrics.write_json(out); });
            if (!quiet) std::cout << "metrics: " << metrics_path << "\n";
        }

        if (!json_path.empty()) {
            cli::write_file("--json", json_path, [&](std::ostream& out) {
                report.write_json(out);
            });
            if (!quiet) std::cout << "json report: " << json_path << "\n";
        }

        if (verify_serial) {
            ward::WardConfig serial = cfg;
            serial.jobs = 1;
            const auto check = ward::WardEngine{serial}.run();
            const std::string a = sim::hex64(report.fingerprint);
            const std::string b = sim::hex64(check.fingerprint);
            if (report.fingerprint != check.fingerprint) {
                std::cout << "FAIL: jobs=" << cfg.jobs << " fingerprint " << a
                          << " != serial fingerprint " << b << "\n";
                return 1;
            }
            std::cout << "OK: jobs=" << cfg.jobs << " and jobs=1 agree ("
                      << a << ")\n";
        }

        if (!verify_obs_jobs.empty()) {
            std::uint64_t ref_events = 0, ref_metrics = 0, ref_report = 0;
            bool first = true;
            bool ok = true;
            for (const unsigned jobs : verify_obs_jobs) {
                ward::WardConfig c = cfg;
                c.jobs = jobs;
                ward::WardObservation o;
                const auto r = ward::WardEngine{c}.run(checker, &o);
                const std::uint64_t ev = o.events.fingerprint();
                const std::uint64_t me = o.metrics.fingerprint();
                if (first) {
                    ref_events = ev;
                    ref_metrics = me;
                    ref_report = r.fingerprint;
                    first = false;
                    continue;
                }
                if (ev != ref_events || me != ref_metrics ||
                    r.fingerprint != ref_report) {
                    std::cout << "FAIL: jobs=" << jobs
                              << " observation diverges from jobs="
                              << verify_obs_jobs.front() << " (events "
                              << (ev == ref_events ? "match" : "differ")
                              << ", metrics "
                              << (me == ref_metrics ? "match" : "differ")
                              << ", report "
                              << (r.fingerprint == ref_report ? "match"
                                                              : "differ")
                              << ")\n";
                    ok = false;
                }
            }
            if (!ok) return 1;
            std::cout << "OK: event log, metrics and report identical"
                         " across jobs {";
            for (std::size_t i = 0; i < verify_obs_jobs.size(); ++i) {
                std::cout << (i ? "," : "") << verify_obs_jobs[i];
            }
            std::cout << "}\n";
        }
        return 0;
        });
}

}  // namespace mcps::drivers
