#include "ward_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>
#include <utility>
#include <vector>

#include "sim/hash.hpp"
#include "sim/parallel.hpp"
#include "sim/table.hpp"

namespace mcps::ward {

namespace {

using sim::kFnvOffset;
using sim::mix;

/// Per-shard reduction state. Filled by exactly one worker; merged in
/// shard order on the coordinating thread.
struct ShardAccumulator {
    sim::RunningStats drug_mg, min_spo2, mean_pain, detection_latency_s;
    sim::Histogram dose_hist{0.0, 40.0, 40};
    sim::Histogram latency_hist{0.0, 600.0, 60};
    std::uint64_t pca_runs = 0, xray_runs = 0, alarm_ward_runs = 0;
    std::uint64_t hospital_runs = 0;
    std::uint64_t demands_denied = 0, interlock_stops = 0;
    std::uint64_t monitor_alarms = 0, smart_alarms = 0, smart_critical = 0;
    std::uint64_t violations = 0, events_dispatched = 0;
    /// Scenario fingerprints in ascending index order within the shard.
    std::vector<std::uint64_t> fingerprints;
    /// Observability sinks, filled only when the run collects them.
    obs::EventLog events;
    obs::MetricsRegistry metrics;

    void add(const ScenarioOutcome& o) {
        switch (o.kind) {
            case WardScenarioKind::kPcaClosedLoop: ++pca_runs; break;
            case WardScenarioKind::kXraySync: ++xray_runs; break;
            case WardScenarioKind::kAlarmWard: ++alarm_ward_runs; break;
            case WardScenarioKind::kHospital: ++hospital_runs; break;
        }
        min_spo2.add(o.min_spo2);
        if (o.kind != WardScenarioKind::kXraySync) {
            // Hospital slots contribute their per-patient mean dose, so
            // the dose distribution stays per-patient-scaled.
            drug_mg.add(o.drug_mg);
            mean_pain.add(o.mean_pain);
            dose_hist.add(o.drug_mg);
        }
        if (o.detection_latency_s >= 0.0) {
            detection_latency_s.add(o.detection_latency_s);
            latency_hist.add(o.detection_latency_s);
        }
        demands_denied += o.demands_denied;
        interlock_stops += o.interlock_stops;
        monitor_alarms += o.monitor_alarms;
        smart_alarms += o.smart_alarms;
        smart_critical += o.smart_critical;
        violations += o.violations;
        events_dispatched += o.events_dispatched;
        fingerprints.push_back(
            mix(o.fingerprint, static_cast<std::uint64_t>(o.kind) + 1));
    }
};

/// Fold one scenario outcome into a shard-local metrics registry. Names
/// are stable wire identifiers (exported by `mcps trace` / the ward CLI).
void record_outcome(obs::MetricsRegistry& reg, const ScenarioOutcome& o) {
    reg.counter("ward.scenarios").add(1);
    reg.counter("ward.runs." + std::string{to_string(o.kind)}).add(1);
    reg.counter("ward.demands_denied").add(o.demands_denied);
    reg.counter("ward.interlock_stops").add(o.interlock_stops);
    reg.counter("ward.monitor_alarms").add(o.monitor_alarms);
    reg.counter("ward.smart_alarms").add(o.smart_alarms);
    reg.counter("ward.smart_critical").add(o.smart_critical);
    reg.counter("ward.violations").add(o.violations);
    reg.counter("ward.events_dispatched").add(o.events_dispatched);
    reg.histogram("ward.min_spo2", 0.0, 100.0, 50).add(o.min_spo2);
    if (o.kind != WardScenarioKind::kXraySync) {
        reg.histogram("ward.dose_mg", 0.0, 40.0, 40).add(o.drug_mg);
    }
    if (o.detection_latency_s >= 0.0) {
        reg.histogram("ward.detection_latency_s", 0.0, 600.0, 60)
            .add(o.detection_latency_s);
    }
}

}  // namespace

double WardReport::alarms_per_scenario() const noexcept {
    return patients == 0 ? 0.0
                         : static_cast<double>(monitor_alarms + smart_alarms) /
                               static_cast<double>(patients);
}

WardEngine::WardEngine(WardConfig cfg) : cfg_{std::move(cfg)} {
    cfg_.validate();
}

WardReport WardEngine::run() const {
    return run(testkit::InvariantChecker::with_defaults());
}

WardReport WardEngine::run(const testkit::InvariantChecker& checker,
                           WardObservation* obs) const {
    const std::size_t n = cfg_.patients;
    const std::size_t shards = std::min(cfg_.shards, n);
    const WardScenarioFactory factory{cfg_};

    // Wall clock measures the engine itself (throughput metric); it never
    // feeds scenario state or fingerprints.
    // mcps-analyze: allow(SIM1): wall-clock perf metric only
    const auto t0 = std::chrono::steady_clock::now();
    // Each shard runs its scenarios in ascending index order into its own
    // accumulator (and, with obs, its own event log and metrics); the
    // calling thread merges them in shard order below.
    const std::vector<ShardAccumulator> accs =
        sim::parallel_map(shards, cfg_.jobs, [&](std::size_t s) {
            const sim::ShardRange r = sim::shard_range(n, shards, s);
            ShardAccumulator acc;
            acc.fingerprints.reserve(r.last - r.first);
            obs::EventLog* log = obs ? &acc.events : nullptr;
            if (log) {
                log->emit(obs::EventKind::kShardStart, sim::SimTime::origin(),
                          "ward", "shard", static_cast<double>(s));
            }
            for (std::size_t i = r.first; i < r.last; ++i) {
                const ScenarioOutcome o = factory.run(i, checker, log);
                acc.add(o);
                if (obs) record_outcome(acc.metrics, o);
            }
            if (log) {
                log->emit(obs::EventKind::kShardEnd, sim::SimTime::origin(),
                          "ward", "shard", static_cast<double>(s));
            }
            return acc;
        });
    // mcps-analyze: allow(SIM1): wall-clock perf metric only (see above).
    const auto t1 = std::chrono::steady_clock::now();

    WardReport rep;
    rep.seed = cfg_.seed;
    rep.patients = n;
    rep.jobs = cfg_.jobs;
    rep.shards = shards;
    rep.mix = to_string(cfg_.mix);
    rep.fault_intensity = cfg_.fault_intensity;

    // Canonical reduction: shard order == global scenario order, so the
    // Welford merge tree and the fingerprint chain are job-independent.
    std::uint64_t fp = mix(kFnvOffset, cfg_.seed);
    fp = mix(fp, n);
    for (const auto& acc : accs) {
        rep.drug_mg.merge(acc.drug_mg);
        rep.min_spo2.merge(acc.min_spo2);
        rep.mean_pain.merge(acc.mean_pain);
        rep.detection_latency_s.merge(acc.detection_latency_s);
        rep.dose_hist.merge(acc.dose_hist);
        rep.latency_hist.merge(acc.latency_hist);
        rep.pca_runs += acc.pca_runs;
        rep.xray_runs += acc.xray_runs;
        rep.alarm_ward_runs += acc.alarm_ward_runs;
        rep.hospital_runs += acc.hospital_runs;
        rep.demands_denied += acc.demands_denied;
        rep.interlock_stops += acc.interlock_stops;
        rep.monitor_alarms += acc.monitor_alarms;
        rep.smart_alarms += acc.smart_alarms;
        rep.smart_critical += acc.smart_critical;
        rep.violations += acc.violations;
        rep.events_dispatched += acc.events_dispatched;
        for (const std::uint64_t f : acc.fingerprints) fp = mix(fp, f);
    }
    rep.fingerprint = fp;

    if (obs) {
        obs->events.clear();
        obs->metrics = obs::MetricsRegistry{};
        std::size_t total_events = 0;
        for (const auto& acc : accs) total_events += acc.events.size();
        obs->events.reserve(total_events);
        for (const auto& acc : accs) obs->events.append(acc.events);
        for (const auto& acc : accs) obs->metrics.merge(acc.metrics);
        // Campaign-shape gauges (job count deliberately excluded: the
        // observation must not vary with --jobs).
        obs->metrics.gauge("ward.fault_intensity").set(cfg_.fault_intensity);
        obs->metrics.gauge("ward.patients").set(static_cast<double>(n));
        obs->metrics.gauge("ward.shards").set(static_cast<double>(shards));
    }

    rep.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    rep.scenarios_per_sec =
        rep.wall_seconds > 0 ? static_cast<double>(n) / rep.wall_seconds : 0.0;
    return rep;
}

void WardReport::print(std::ostream& os) const {
    os << "ward: " << patients << " patients, jobs " << jobs << ", shards "
       << shards << ", seed " << seed << ", mix " << mix << ", intensity "
       << fault_intensity << "\n"
       << "  fingerprint " << sim::hex64(fingerprint) << "\n";

    sim::Table workload{{"workload", "runs"}};
    workload.row().cell("pca_closed_loop").cell(pca_runs);
    workload.row().cell("xray_sync").cell(xray_runs);
    workload.row().cell("alarm_ward").cell(alarm_ward_runs);
    if (hospital_runs > 0) workload.row().cell("hospital").cell(hospital_runs);
    workload.print(os, "workload mix");
    os << '\n';

    sim::Table t{{"metric", "count", "mean", "min", "max", "p95"}};
    const auto stat_row = [&t](const char* name, const sim::RunningStats& s,
                               const sim::Histogram& h) {
        t.row()
            .cell(name)
            .cell(static_cast<std::uint64_t>(s.count()))
            .cell(s.mean(), 2)
            .cell(s.empty() ? 0.0 : s.min(), 2)
            .cell(s.empty() ? 0.0 : s.max(), 2)
            .cell(h.total() ? h.quantile(0.95) : 0.0, 2);
    };
    stat_row("drug_mg", drug_mg, dose_hist);
    stat_row("detection_latency_s", detection_latency_s, latency_hist);
    t.row()
        .cell("min_spo2")
        .cell(static_cast<std::uint64_t>(min_spo2.count()))
        .cell(min_spo2.mean(), 2)
        .cell(min_spo2.empty() ? 0.0 : min_spo2.min(), 2)
        .cell(min_spo2.empty() ? 0.0 : min_spo2.max(), 2)
        .cell(std::string{"-"});
    t.row()
        .cell("mean_pain")
        .cell(static_cast<std::uint64_t>(mean_pain.count()))
        .cell(mean_pain.mean(), 2)
        .cell(mean_pain.empty() ? 0.0 : mean_pain.min(), 2)
        .cell(mean_pain.empty() ? 0.0 : mean_pain.max(), 2)
        .cell(std::string{"-"});
    t.print(os, "per-scenario distributions");
    os << '\n';

    sim::Table totals{{"total", "value"}};
    totals.row().cell("demands_denied").cell(demands_denied);
    totals.row().cell("interlock_stops").cell(interlock_stops);
    totals.row().cell("monitor_alarms").cell(monitor_alarms);
    totals.row().cell("smart_alarms").cell(smart_alarms);
    totals.row().cell("smart_critical").cell(smart_critical);
    totals.row().cell("invariant_violations").cell(violations);
    totals.row().cell("events_dispatched").cell(events_dispatched);
    totals.print(os, "ward totals");
    os << '\n';

    char line[128];
    std::snprintf(line, sizeof line,
                  "throughput: %.2f scenarios/sec (%.2f s wall)\n",
                  scenarios_per_sec, wall_seconds);
    os << line;
}

void WardReport::write_json(std::ostream& os) const {
    const auto stats_obj = [&os](const char* name, const sim::RunningStats& s) {
        os << "    \"" << name << "\": {\"count\": " << s.count()
           << ", \"mean\": " << s.mean() << ", \"stddev\": " << s.stddev()
           << ", \"min\": " << (s.empty() ? 0.0 : s.min())
           << ", \"max\": " << (s.empty() ? 0.0 : s.max()) << "}";
    };
    os << "{\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"patients\": " << patients << ",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"shards\": " << shards << ",\n"
       << "  \"mix\": \"" << mix << "\",\n"
       << "  \"fault_intensity\": " << fault_intensity << ",\n"
       << "  \"fingerprint\": \"" << sim::hex64(fingerprint) << "\",\n"
       << "  \"runs\": {\"pca\": " << pca_runs << ", \"xray\": " << xray_runs
       << ", \"alarm_ward\": " << alarm_ward_runs
       << ", \"hospital\": " << hospital_runs << "},\n"
       << "  \"stats\": {\n";
    stats_obj("drug_mg", drug_mg);
    os << ",\n";
    stats_obj("min_spo2", min_spo2);
    os << ",\n";
    stats_obj("mean_pain", mean_pain);
    os << ",\n";
    stats_obj("detection_latency_s", detection_latency_s);
    os << "\n  },\n"
       << "  \"dose_p95_mg\": "
       << (dose_hist.total() ? dose_hist.quantile(0.95) : 0.0) << ",\n"
       << "  \"detection_latency_p95_s\": "
       << (latency_hist.total() ? latency_hist.quantile(0.95) : 0.0) << ",\n"
       << "  \"totals\": {\"demands_denied\": " << demands_denied
       << ", \"interlock_stops\": " << interlock_stops
       << ", \"monitor_alarms\": " << monitor_alarms
       << ", \"smart_alarms\": " << smart_alarms
       << ", \"smart_critical\": " << smart_critical
       << ", \"invariant_violations\": " << violations
       << ", \"events_dispatched\": " << events_dispatched << "},\n"
       << "  \"wall_seconds\": " << wall_seconds << ",\n"
       << "  \"scenarios_per_sec\": " << scenarios_per_sec << "\n"
       << "}\n";
}

}  // namespace mcps::ward
