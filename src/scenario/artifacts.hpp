/// \file artifacts.hpp
/// \brief RunArtifacts: the unified result of one registry-run scenario.
///
/// Every scenario the registry runs yields the same artifact shape —
/// the normalized spec echo, a 64-bit fingerprint (the harnesses'
/// byte-identity definition of "the same run"), and a flat outcome
/// digest in a deterministic key order — replacing the per-consumer
/// metric structs the benches, CLIs and examples used to carry around.
/// Optional deep observability (structured EventLog, MetricsRegistry)
/// is attached through RunOptions rather than copied into every result.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "spec.hpp"

namespace mcps::scenario {

/// Optional observability sinks for a registry run. Both pointers may
/// be null; when set they must outlive the run.
struct RunOptions {
    /// Structured event log: bus, devices, supervisor, interlock. When
    /// null, a pca or x-ray run records into a log of its own, without
    /// the bus traffic, and drops it when the run ends.
    mcps::obs::EventLog* events = nullptr;
    /// Scenario-level metrics ("scenario/<name>/<metric>" gauges plus a
    /// "scenario/runs" counter), merged registry-style.
    mcps::obs::MetricsRegistry* metrics = nullptr;
};

/// What one scenario run produced.
struct RunArtifacts {
    /// The spec that produced this run (normalized: defaulted seed and
    /// minutes made explicit). `spec.to_text()` reproduces the run.
    ScenarioSpec spec;
    /// Order- and value-exact digest of the run (PcaScenario::fingerprint
    /// for PCA-family scenarios, core::fingerprint of the result for
    /// x-ray). Two runs are "the same" iff fingerprints match.
    std::uint64_t fingerprint = 0;
    /// Flat outcome metrics in a fixed, documented order.
    std::vector<std::pair<std::string, double>> outcome;

    /// Lookup; nullptr when the metric is absent.
    [[nodiscard]] const double* find(std::string_view name) const;
    /// Lookup. \throws SpecError naming the metric when absent.
    [[nodiscard]] double at(std::string_view name) const;

    /// "0x%016llx" rendering of the fingerprint.
    [[nodiscard]] std::string fingerprint_hex() const;

    /// Two-column human-readable outcome table.
    void print(std::ostream& os) const;
    /// One JSON object: {"spec":{...},"fingerprint":"0x...",
    /// "outcome":{...}} (hand-written, deterministic key order).
    void write_json(std::ostream& os) const;
};

}  // namespace mcps::scenario
