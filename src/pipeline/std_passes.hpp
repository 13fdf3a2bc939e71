/// \file std_passes.hpp
/// \brief The built-in pass registry: every existing mcps stage as a
/// pipeline pass.
///
/// These builders migrate the repo's stages onto the Pass/PipelineGraph
/// substrate:
///
///   scenario execution   spec/<id>        -> run/<id>/{artifacts,events,
///                                            fingerprint}
///   trace export         run/<id>/events  -> trace/<id>/chrome
///   analysis stages      (pure / scans)   -> analysis/<stage> findings
///   analysis merge       stage findings   -> analysis/{report,sarif}
///   ward campaign        ward/<id>/config -> ward/<id>/{report,
///                                            fingerprint}
///   ward report merge    fingerprints     -> ward/summary
///
/// Every body is a pure function of its input artifacts + params (the
/// two filesystem scans are registered non-cacheable instead), so the
/// graph's determinism and invalidation contracts hold end to end:
/// editing one scenario knob re-keys exactly that spec's run pass and
/// its downstream passes, nothing else.

#pragma once

#include <string>
#include <vector>

#include "graph.hpp"
#include "scenario/scenario.hpp"
#include "ward/ward_config.hpp"

namespace mcps::pipeline {

// ---- scenario execution ----------------------------------------------

/// Provide source artifact "spec/<id>" (kind "spec", canonical spec
/// text) and register pass "run:<id>" producing "run/<id>/artifacts"
/// (run-json), "run/<id>/events" (events-jsonl, through
/// PassContext::emit_events; only for a scenario whose
/// ScenarioInfo::records_event_log() holds) and
/// "run/<id>/fingerprint" (fingerprint).
void add_scenario_pass(PipelineGraph& g, const std::string& id,
                       const scenario::ScenarioSpec& spec);

/// Register pass "trace:<id>": "run/<id>/events" -> "trace/<id>/chrome"
/// (chrome-trace). It exports run:<id>'s live log through
/// PassContext::events(), so the JSONL is decoded only when run:<id>
/// was replayed from a cache.
void add_trace_export_pass(PipelineGraph& g, const std::string& id);

// ---- analysis ---------------------------------------------------------

struct AnalysisPassOptions {
    bool models = true;       ///< TA1–TA4 over shipped TA models
    bool assemblies = true;   ///< ICE1 over shipped assemblies
    bool hazards = true;      ///< AS1 over the GPCA hazard log + GSN
    bool deadlines = true;    ///< TA5 over every registry preset
    bool cross_check = false; ///< TA5 static-vs-observed (2 sim runs)
    std::string src_root;     ///< SIM1 scan root; empty = no scan pass
    std::vector<std::string> scenario_roots;  ///< ICE1 bypass scan
    std::vector<std::string> conc_roots;      ///< CONC1 lock scan
    std::string suppress;     ///< comma rule list, e.g. "TA2,SIM1"

    /// Canonical echo of every option (driver display / logging). Each
    /// stage pass hashes only the subset that changes its bytes, so
    /// invalidation stays exact.
    [[nodiscard]] std::string params() const;
};

/// Register one pass per enabled stage ("analyze:models",
/// "analyze:assemblies", "analyze:hazards", "analyze:deadlines",
/// "analyze:scan", "analyze:scenario-scan", "analyze:conc" — the three
/// scans are non-cacheable) plus "analyze:merge" producing
/// "analysis/report" (report-json) and "analysis/sarif" (sarif).
/// \throws PipelineError on an unknown rule in \p opts.suppress.
void add_analysis_passes(PipelineGraph& g, const AnalysisPassOptions& opts);

// ---- ward campaigns ---------------------------------------------------

/// Canonical one-line text form of a ward campaign config
/// ("seed=42 patients=64 jobs=1 shards=64 mix=pca=0.7,... intensity=0");
/// round-trips through parse_ward_config.
[[nodiscard]] std::string ward_config_to_text(const ward::WardConfig& cfg);

/// Parse ward_config_to_text() / `mcps pipeline --ward` specs. Unknown
/// keys, malformed values and `jobs` above sim::kMaxJobs \throw
/// ward::WardConfigError.
[[nodiscard]] ward::WardConfig parse_ward_config(std::string_view text);

/// Provide source artifact "ward/<id>/config" and register pass
/// "ward:<id>" producing "ward/<id>/report" (ward-json, wall-time
/// fields zeroed: artifacts never carry run-varying bytes) and
/// "ward/<id>/fingerprint" (fingerprint).
/// \throws ward::WardConfigError on an invalid config.
void add_ward_pass(PipelineGraph& g, const std::string& id,
                   const ward::WardConfig& cfg);

/// Register pass "ward:merge" folding the campaigns' fingerprints into
/// "ward/summary" (ward-summary): one `<id><TAB>0x<fp>` line per
/// campaign plus a `combined` digest line.
void add_ward_merge_pass(PipelineGraph& g,
                         const std::vector<std::string>& ids);

}  // namespace mcps::pipeline
