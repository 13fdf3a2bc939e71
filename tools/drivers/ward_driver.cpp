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

namespace mcps::drivers {

constexpr cli::Option kOptions[] = {
    {"--patients", cli::count("N"), "*", "scenarios to run (default 64)"},
    {"--jobs", cli::kJobs, "*", "worker threads (default 1, at most 256)"},
    {"--shards", cli::count("N"), "*",
     "reduction shards (default 64; fixes the merge order, so keep it "
     "constant when comparing runs)"},
    {"--mix", cli::text("SPEC"), "*",
     "workload weights, e.g. pca=0.7,xray=0.15,ward=0.15 (normalized; "
     "default shown; hospital=X embeds smoke-sized hospital-small "
     "population runs)"},
    {"--seed", cli::count("N"), "*", "master seed (default 42)"},
    {"--intensity", cli::number("X", 0, testkit::kMaxFaultIntensity), "*",
     "fault-plan intensity for PCA-family scenarios (default 0 = no "
     "injected faults)"},
    {"--json", cli::kOutPath, "*", "write the machine-readable report"},
    {"--events-out", cli::kOutPath, "*",
     "write the campaign's merged structured event log as JSONL"},
    {"--metrics-out", cli::kOutPath, "*",
     "write the campaign's metrics registry as JSON"},
    {"--verify-serial", cli::kSwitch, "*",
     "also run with jobs=1 and require an identical ward fingerprint"},
    {"--verify-obs-jobs", cli::list(0, sim::kMaxJobs, 2), "*",
     "run the campaign once per job count in the comma-separated LIST "
     "(e.g. 1,4,8) and require bit-identical event logs, metrics and "
     "report fingerprints across all of them"},
    {"--quiet", cli::kSwitch, "*", "suppress the report tables"},
};

const cli::Command kWardCli{
    "ward", "ward-scale parallel campaign engine", {}, kOptions};

int ward_main(std::string_view prog,
              const std::vector<std::string_view>& argv) {
    return cli::tool_main(prog, kWardCli, argv, [&](const cli::Parsed& p) {
        ward::WardConfig cfg;
        cfg.patients = p.count("--patients", cfg.patients);
        cfg.jobs = p.count("--jobs", cfg.jobs);
        cfg.shards = p.count("--shards", cfg.shards);
        if (p.has("--mix")) cfg.mix = ward::parse_mix(p.text("--mix"));
        cfg.seed = p.count("--seed", cfg.seed);
        cfg.fault_intensity = p.number("--intensity", cfg.fault_intensity);
        const bool quiet = p.has("--quiet");
        const std::string json_path = p.text("--json");
        const std::string events_path = p.text("--events-out");
        const std::string metrics_path = p.text("--metrics-out");
        const std::vector<unsigned> verify_obs_jobs =
            p.list("--verify-obs-jobs");

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

        if (p.has("--verify-serial")) {
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
