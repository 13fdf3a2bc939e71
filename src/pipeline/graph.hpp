/// \file graph.hpp
/// \brief PipelineGraph: topological pass scheduling over cached,
/// invalidatable artifacts.
///
/// A graph holds source artifacts (provide()) and passes (add());
/// run() validates the graph — unique outputs, every input produced by
/// exactly one pass or provided, no cycles — and executes it either
/// serially in deterministic topological order (jobs <= 1) or in
/// parallel on a ward::ThreadPool with dependency counting: a pass is
/// submitted the moment its last input is ready, independent subgraphs
/// overlap freely.
///
/// Determinism contract: the produced artifacts are byte-identical
/// whether the run is serial, parallel (any job count), cold, or
/// replayed from an ArtifactCache — because each pass is a pure
/// function of its declared inputs + params, the cache is keyed by a
/// content hash of exactly those, and the result's pass list is
/// reported in topological order regardless of execution order. Only
/// wall-time fields vary run to run, and they are never folded into an
/// artifact.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "cache.hpp"
#include "obs/metrics.hpp"
#include "pass.hpp"

namespace mcps::pipeline {

struct PipelineOptions {
    /// Worker threads; <= 1 runs serially in topological order.
    unsigned jobs = 1;
    /// Artifact cache; null = always cold (every pass executes).
    ArtifactCache* cache = nullptr;
    /// When set, run() records per-pass wall time and cache hit/miss
    /// counters here after the run completes ("pipeline/*" names).
    obs::MetricsRegistry* metrics = nullptr;
};

/// What happened to one pass during a run.
struct PassOutcome {
    std::string name;
    bool from_cache = false;  ///< replayed: body never executed
    double wall_us = 0.0;     ///< run-varying; excluded from artifacts
};

/// Everything a run produced, in deterministic shape.
struct PipelineResult {
    /// One entry per pass, in topological order (not execution order).
    std::vector<PassOutcome> passes;
    /// Every artifact by name: the provided sources plus each pass's
    /// outputs (map iteration = sorted name order, so exports are
    /// deterministic).
    std::map<std::string, Artifact> artifacts;
    /// Output artifact name -> the content-hash cache key it was
    /// stored or looked up under. Only passes run against a cache have
    /// keys: an uncached run (or a non-cacheable pass) digests no input
    /// and leaves this empty.
    std::map<std::string, std::string> keys;
    /// This run's cache traffic (counted per pass output).
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;

    /// Artifact lookup. \throws PipelineError when absent.
    [[nodiscard]] const Artifact& at(const std::string& name) const;

    /// One line per artifact, sorted by name:
    /// `name<TAB>kind<TAB>0x<digest>\n`. Byte-identical across serial /
    /// parallel / cold / cached runs — the handle the determinism suite
    /// compares.
    [[nodiscard]] std::string manifest() const;

    /// 64-bit digest of manifest().
    [[nodiscard]] std::uint64_t digest() const;
};

class PipelineGraph {
public:
    /// Add a source artifact (an external input: a spec, a config).
    /// \throws PipelineError on a duplicate name.
    void provide(const std::string& name, Artifact artifact);

    /// Register a pass. \throws PipelineError on a duplicate pass name,
    /// a duplicate output, or an output colliding with a source.
    void add(Pass pass);

    [[nodiscard]] std::size_t pass_count() const noexcept {
        return passes_.size();
    }

    /// Pass names in the deterministic topological order run() uses
    /// (registration order among ready passes). Validates the graph.
    /// \throws PipelineError on unknown inputs or a dependency cycle.
    [[nodiscard]] std::vector<std::string> topo_order() const;

    /// Pass names (in topological order) that a change to artifact
    /// \p name invalidates: its direct consumers and everything
    /// downstream of them. The structural ground truth the
    /// invalidation property test compares cache behavior against.
    [[nodiscard]] std::vector<std::string> dependents_of(
        const std::string& name) const;

    /// Execute. \throws PipelineError on an invalid graph or the first
    /// failing pass body (message names the pass).
    [[nodiscard]] PipelineResult run(const PipelineOptions& opts = {}) const;

private:
    struct Node {
        Pass pass;
        std::vector<std::size_t> deps;        ///< pass indices
        std::vector<std::size_t> dependents;  ///< pass indices
    };

    /// Resolve edges and topo-sort. \throws PipelineError.
    [[nodiscard]] std::vector<std::size_t> plan(
        std::vector<Node>& nodes) const;

    void run_serial(const std::vector<Node>& nodes,
                    const std::vector<std::size_t>& order,
                    const PipelineOptions& opts, PipelineResult& result) const;
    void run_parallel(const std::vector<Node>& nodes,
                      const std::vector<std::size_t>& order,
                      const PipelineOptions& opts,
                      PipelineResult& result) const;

    std::map<std::string, Artifact> sources_;
    std::vector<Pass> passes_;
};

/// Fold a completed run into \p metrics: per-pass wall gauges
/// ("pipeline/pass/<name>/wall_us"), hit/run counters, and pipeline
/// totals. Called by run() when PipelineOptions::metrics is set; public
/// so drivers can aggregate multiple runs into one registry.
void record_metrics(const PipelineResult& result,
                    obs::MetricsRegistry& metrics);

}  // namespace mcps::pipeline
