/// \file workloads.hpp
/// \brief The four workloads and the traced per-layer ladder.
///
/// Each workload runs its set-up several times (setup_s is their median),
/// then measures for Options::seconds. Untraced, it fills the end-to-end
/// metrics; traced, it alternates traced and untraced cycles and reports
/// trace.overhead_frac, and main() adds the per-layer ladder.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "hospital/hospital_config.hpp"
#include "pipeline/graph.hpp"
#include "scenario/spec.hpp"
#include "spans.hpp"

namespace perfbench {

struct Context {
    Options opt;
    HostGauge gauge;
    SpanRecorder spans;
    Report report;

    /// Set-up repetitions: enough for a steady median, once when traced.
    [[nodiscard]] int setup_reps() const { return opt.trace ? 1 : 7; }
    [[nodiscard]] SpanRecorder* trace_spans() {
        return opt.trace ? &spans : nullptr;
    }
    /// Pin checks shared by every set-up; mismatches fail the run.
    void check_pins();
    /// End-to-end metrics (untraced) or the trace overhead (traced).
    /// Rates are per second of op time (median_busy_s).
    void finish_closed_loop(const Samples& s, double limit_ms,
                            double setup_norm_s, double setup_raw_s);
};

void run_bedside(Context& ctx);
void run_forensic(Context& ctx);
void run_hospital(Context& ctx);
void run_serve(Context& ctx);

/// Every per-layer metric, identical on every workload.
void run_layers(Context& ctx);

// ---- inputs shared between a workload and the ladder ------------------

/// Simulated minutes of each hospital run.
inline constexpr std::uint64_t kHospitalMinutes = 3;

/// The forensic workload's graph: pca and xray scenario passes (events
/// on) plus their Chrome trace-export passes.
[[nodiscard]] mcps::pipeline::PipelineGraph forensic_graph(
    const mcps::scenario::ScenarioSpec& pca,
    const mcps::scenario::ScenarioSpec& xray);
/// Forensic spec \p which (0 = pca, 1 = xray), pool slot \p r.
[[nodiscard]] mcps::scenario::ScenarioSpec forensic_spec(std::uint64_t seed,
                                                         int which,
                                                         std::uint64_t r);
/// The hospital workload's config for pool slot \p r.
[[nodiscard]] mcps::hospital::HospitalConfig hospital_config(
    std::uint64_t seed, std::uint64_t r, unsigned jobs);

/// What one open-loop serve measurement saw.
struct ServeStats {
    Samples samples;                  ///< latency from due time
    std::vector<double> late_ms;      ///< send time - due time
    std::vector<double> queue_ms;     ///< misses: server queue wait
    std::vector<double> run_ms;       ///< misses: server run time
    std::uint64_t cached = 0;         ///< responses with cached=true
    double window_s = 0.0;            ///< wall time load was offered
    std::uint64_t cache_hits = 0;     ///< ResultCache, after drain
    std::uint64_t cache_misses = 0;
};

/// The serve workload: an embedded server, a seeded request mix and an
/// open-loop generator over two connections.
class ServeBench {
public:
    explicit ServeBench(std::uint64_t seed);
    ~ServeBench();
    ServeBench(const ServeBench&) = delete;
    ServeBench& operator=(const ServeBench&) = delete;

    /// Bind a server, warm its cache with the hit pool and check every
    /// first response. Returns failures.
    [[nodiscard]] std::vector<std::string> start();
    /// Drain and join the server (no-op when not started).
    void stop();
    /// Offer load for \p seconds in cycles bracketed by slices. Drains
    /// the server afterwards and fills the cache counters.
    [[nodiscard]] ServeStats measure(HostGauge& gauge, double seconds,
                                     SpanRecorder* spans);
    /// Re-run every miss directly and compare bytes. Returns failures.
    [[nodiscard]] std::vector<std::string> verify_misses() const;
    /// Client::run round trips: median hit (us) and miss (ms) times.
    void client_probe(HostGauge& gauge, double& hit_us, double& miss_ms);

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
