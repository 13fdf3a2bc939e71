/// \file bench_e10_ward_scale.cpp
/// \brief Experiment E10 — ward-scale throughput: scenarios/sec as the
/// worker count grows.
///
/// Runs the same mixed-workload ward campaign (PCA closed loop, x-ray
/// sync, smart-alarm shifts, adversarial fault plans on) at 1/2/4/8
/// workers and reports scenarios/sec plus speedup over the serial run.
/// The ward fingerprint must be identical at every job count — the
/// scaling is only meaningful if the parallel runs compute the same
/// campaign — so the bench asserts it and fails loudly otherwise.
///
/// Scenarios are independent single-threaded kernels, so on an N-core
/// machine speedup should approach min(jobs, N); on fewer cores the
/// curve flattens at the core count (run on >= 8 cores to reproduce the
/// headline 8-worker figure).

#include <iostream>
#include <vector>

#include "bench_io.hpp"
#include "sim/hash.hpp"
#include "sim/table.hpp"
#include "ward/ward.hpp"

using namespace mcps;

namespace {

constexpr std::uint64_t kMasterSeed = 20260806;
constexpr std::size_t kPatients = 64;

}  // namespace

int main(int argc, char** argv) {
    benchio::JsonReporter json{argc, argv, "e10_ward_scale"};
    json.set_seed(kMasterSeed);
    const bool quick = benchio::quick_mode(argc, argv);
    const std::size_t patients = quick ? 8 : kPatients;

    std::cout << "E10: ward-scale parallel execution (" << patients
              << " patients, mixed workloads, fault plans on)\n\n";

    ward::WardConfig cfg;
    cfg.seed = kMasterSeed;
    cfg.patients = patients;
    // Fixed: the reduction tree must not change with jobs.
    cfg.shards = quick ? 8 : 32;
    cfg.mix = {0.6, 0.2, 0.2};
    cfg.fault_intensity = 1.0;

    sim::Table t{{"jobs", "scenarios_per_sec", "wall_s", "speedup",
                  "fingerprint"}};
    double serial_rate = 0.0;
    std::uint64_t serial_fp = 0;
    bool fingerprints_agree = true;
    const std::vector<unsigned> job_counts =
        quick ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4, 8};
    for (const unsigned jobs : job_counts) {
        cfg.jobs = jobs;
        const auto rep = ward::WardEngine{cfg}.run();
        if (jobs == 1) {
            serial_rate = rep.scenarios_per_sec;
            serial_fp = rep.fingerprint;
        }
        fingerprints_agree = fingerprints_agree && rep.fingerprint == serial_fp;
        const double speedup =
            serial_rate > 0 ? rep.scenarios_per_sec / serial_rate : 0.0;
        t.row()
            .cell(static_cast<std::uint64_t>(jobs))
            .cell(rep.scenarios_per_sec, 2)
            .cell(rep.wall_seconds, 2)
            .cell(speedup, 2)
            .cell(sim::hex64(rep.fingerprint));
        json.metric("scenarios_per_sec_jobs" + std::to_string(jobs),
                    rep.scenarios_per_sec, "scenarios/sec");
        json.metric("speedup_jobs" + std::to_string(jobs), speedup, "x");
        if (jobs == 8) {
            json.metric("events_per_sec_jobs8",
                        rep.wall_seconds > 0
                            ? static_cast<double>(rep.events_dispatched) /
                                  rep.wall_seconds
                            : 0.0,
                        "events/sec");
        }
    }
    t.print(std::cout, "E10: throughput scaling (identical campaign)");
    std::cout << '\n';

    if (!fingerprints_agree) {
        std::cout << "FAIL: ward fingerprint varied with the job count — "
                     "parallel runs are not reproducing the serial campaign\n";
        return 1;
    }
    std::cout
        << "Expected shape: scenarios/sec grows ~linearly with jobs up to\n"
           "the machine's core count (each scenario is an independent\n"
           "single-threaded kernel; >= 3x at 8 workers on >= 4 real\n"
           "cores), with the fingerprint column constant — the parallel\n"
           "campaign is bit-identical to the serial one.\n";
    return json.write() ? 0 : 1;
}
