#include "fuzzer.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sim/parallel.hpp"

namespace mcps::testkit {

namespace {

/// Scenario indices per window. A window's runs are in flight together
/// and held until its failures are captured, so this bounds the sweep's
/// memory; it never changes the outcome.
constexpr std::uint64_t kWindow = 64;

void emit(const FuzzOptions& opts, const std::string& line) {
    if (opts.log) opts.log(line);
}

/// "name @t: detail; ..." rendering for the per-failure log line.
std::string describe_violations(const std::vector<Violation>& vs) {
    std::ostringstream os;
    for (std::size_t i = 0; i < vs.size(); ++i) {
        if (i) os << "; ";
        os << vs[i].invariant << " @" << vs[i].at_s << "s: " << vs[i].detail;
    }
    return os.str();
}

/// One scenario index as the sweep ran it: a pure function of (options,
/// index), so it may run on any thread.
struct IndexedRun {
    Repro repro;
    std::vector<Violation> violations;
};

IndexedRun run_index(const FuzzOptions& opts, const ScenarioGenerator& gen,
                     const InvariantChecker& checker, std::uint64_t i) {
    IndexedRun r;
    r.repro.seed = opts.seed;
    r.repro.index = i;
    r.repro.weakened = opts.weakened;
    if (opts.hospital) {
        r.repro.kind = WorkloadKind::kHospital;
    } else if (opts.weakened) {
        r.repro.kind = WorkloadKind::kPca;
    } else {
        r.repro.kind = gen.kind_of(i, opts.xray_fraction);
    }
    if (r.repro.kind == WorkloadKind::kPca) {
        r.repro.faults =
            (opts.weakened ? gen.weakened_pca(i) : gen.pca(i)).faults;
    }
    ReplayResult run = replay(r.repro, checker);
    r.violations = std::move(run.violations);
    r.repro.fingerprint = run.fingerprint;
    return r;
}

/// Turn one violating run into a finished FuzzFailure: log it, shrink
/// (if enabled), pin the canonical violations, verify byte-identical
/// replay, write the repro file and log the result.
FuzzFailure capture_failure(const FuzzOptions& opts,
                            const InvariantChecker& checker, IndexedRun run) {
    Repro& repro = run.repro;
    emit(opts, "scenario " + std::to_string(repro.index) + " (" +
                   std::string{to_string(repro.kind)} +
                   ") violated: " + describe_violations(run.violations));
    FuzzFailure f;
    f.original_fault_events = repro.faults.size();
    f.violations = std::move(run.violations);
    if (opts.shrink) {
        repro = shrink(repro, checker, &f.shrink_runs);
        // The shrunk plan is the canonical counterexample; report its
        // violations, not the original run's.
        f.violations = replay(repro, checker).violations;
        ++f.shrink_runs;
    }
    const auto verify = replay(repro, checker);
    f.replay_byte_identical = verify.byte_identical;
    f.repro = std::move(repro);
    if (!opts.repro_dir.empty()) {
        std::ostringstream name;
        name << opts.repro_dir
             << (f.repro.kind == WorkloadKind::kHospital ? "/hospital-"
                                                         : "/repro-")
             << f.repro.seed << "-" << f.repro.index << ".txt";
        f.repro_path = name.str();
        save_repro(f.repro_path, f.repro);
    }

    if (opts.shrink) {
        emit(opts, "  shrunk " + std::to_string(f.original_fault_events) +
                       " -> " + std::to_string(f.repro.faults.size()) +
                       " fault events in " + std::to_string(f.shrink_runs) +
                       " runs");
    }
    emit(opts, std::string{"  replay byte-identical: "} +
                   (f.replay_byte_identical ? "yes" : "NO"));
    if (!f.repro_path.empty()) emit(opts, "  repro saved: " + f.repro_path);
    return f;
}

}  // namespace

FuzzOutcome run_fuzz(const FuzzOptions& opts, const InvariantChecker& checker,
                     unsigned jobs) {
    if (!(opts.xray_fraction >= 0.0 && opts.xray_fraction <= 1.0)) {
        char msg[64];
        std::snprintf(msg, sizeof msg, "x-ray fraction %g is outside [0, 1]",
                      opts.xray_fraction);
        throw std::invalid_argument{msg};
    }
    const ScenarioGenerator gen{opts.seed, opts.fault_intensity};
    if (!opts.repro_dir.empty()) {
        std::filesystem::create_directories(opts.repro_dir);
    }
    FuzzOutcome out;

    for (std::uint64_t base = 0; base < opts.scenarios; base += kWindow) {
        // Phase 1: run the window's scenarios, results in index order.
        std::vector<IndexedRun> runs = sim::parallel_map(
            std::min(kWindow, opts.scenarios - base), jobs,
            [&](std::size_t k) { return run_index(opts, gen, checker, base + k); });

        // Phase 2: capture in index order. Shrinking re-runs scenarios;
        // it stays on this thread so repro files and log lines appear in
        // the same order for any job count.
        for (IndexedRun& r : runs) {
            ++out.scenarios_run;
            switch (r.repro.kind) {
                case WorkloadKind::kPca: ++out.pca_runs; break;
                case WorkloadKind::kXray: ++out.xray_runs; break;
                case WorkloadKind::kHospital: ++out.hospital_runs; break;
            }
            if (!r.violations.empty()) {
                out.failures.push_back(
                    capture_failure(opts, checker, std::move(r)));
            }
        }
    }
    return out;
}

FuzzOutcome run_fuzz(const FuzzOptions& opts) {
    return run_fuzz(opts, InvariantChecker::with_defaults());
}

}  // namespace mcps::testkit
