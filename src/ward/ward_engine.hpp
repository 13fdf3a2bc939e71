/// \file ward_engine.hpp
/// \brief Parallel ward campaign execution with deterministic reduction.
///
/// The engine runs N independent patient scenarios through
/// `sim::parallel_map` and aggregates them into one WardReport. Determinism
/// contract: for a fixed WardConfig (seed, patients, shards, mix,
/// fault_intensity), the report's fingerprint and every merged statistic
/// are bit-identical for ANY job count, because
///
///   1. each scenario is a pure function of (seed, index) — workers never
///      share simulation state;
///   2. scenarios are assigned to `shards` fixed contiguous index ranges
///      (`sim::shard_range`), and each shard accumulates its scenarios in
///      ascending index order, whichever worker happens to execute it;
///   3. shard accumulators are merged on the calling thread in shard
///      order, so the floating-point reduction tree is frozen by the
///      shard count, not by scheduling.
///
/// Only wall-clock throughput fields vary between runs.

#pragma once

#include <iosfwd>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "sim/stats.hpp"
#include "ward_scenarios.hpp"

namespace mcps::ward {

/// Optional observability sink for a ward campaign: the merged structured
/// event log (every scenario's events, concatenated in scenario-index
/// order within shards merged in shard order) plus a metrics registry of
/// ward-level counters and histograms. Both are bit-identical for any
/// job count — the per-shard collection and shard-order merge follow the
/// same determinism argument as the report fingerprint. Deliberately
/// excludes job count and wall-clock, the only run-varying quantities.
struct WardObservation {
    obs::EventLog events;
    obs::MetricsRegistry metrics;
};

/// Ward-level aggregate over one campaign.
struct WardReport {
    // Campaign echo.
    std::uint64_t seed = 0;
    std::size_t patients = 0;
    unsigned jobs = 1;
    std::size_t shards = 0;
    std::string mix;  ///< canonical normalized mix string
    double fault_intensity = 0.0;

    // Workload counts.
    std::uint64_t pca_runs = 0;
    std::uint64_t xray_runs = 0;
    std::uint64_t alarm_ward_runs = 0;
    std::uint64_t hospital_runs = 0;

    // Merged statistics (parallel-Welford over shard accumulators).
    sim::RunningStats drug_mg;          ///< per-scenario opioid delivered
    sim::RunningStats min_spo2;         ///< per-scenario worst saturation
    sim::RunningStats mean_pain;        ///< PCA-family scenarios
    sim::RunningStats detection_latency_s;  ///< hypoxia->stop episodes
    sim::Histogram dose_hist{0.0, 40.0, 40};          ///< mg per scenario
    sim::Histogram latency_hist{0.0, 600.0, 60};      ///< seconds

    // Ward totals.
    std::uint64_t demands_denied = 0;
    std::uint64_t interlock_stops = 0;
    std::uint64_t monitor_alarms = 0;
    std::uint64_t smart_alarms = 0;
    std::uint64_t smart_critical = 0;
    std::uint64_t violations = 0;
    std::uint64_t events_dispatched = 0;

    /// 64-bit digest folding every scenario fingerprint (and kind) in
    /// index order — the "provably identical" handle for serial vs
    /// parallel runs.
    std::uint64_t fingerprint = 0;

    // Throughput (the only fields that legitimately vary run-to-run).
    double wall_seconds = 0.0;
    double scenarios_per_sec = 0.0;

    /// Alarms (monitor + smart) per scenario-hour proxy: total alarms /
    /// scenarios. Exposed as a helper so the CLI and bench agree.
    [[nodiscard]] double alarms_per_scenario() const noexcept;

    /// Human-readable summary tables.
    void print(std::ostream& os) const;
    /// Machine-readable report (one JSON object).
    void write_json(std::ostream& os) const;
};

class WardEngine {
public:
    /// \throws WardConfigError on an invalid config.
    explicit WardEngine(WardConfig cfg);

    [[nodiscard]] const WardConfig& config() const noexcept { return cfg_; }

    /// Run the campaign with the default clinical invariant set.
    [[nodiscard]] WardReport run() const;
    /// \param obs when non-null, filled with the campaign's merged event
    ///   log and metrics (cleared first). Null skips all collection.
    [[nodiscard]] WardReport run(const testkit::InvariantChecker& checker,
                                 WardObservation* obs = nullptr) const;

private:
    WardConfig cfg_;
};

}  // namespace mcps::ward
