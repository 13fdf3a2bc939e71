/// \file test_determinism.cpp
/// \brief End-to-end pipeline properties over the real std passes:
/// byte-identical artifacts across serial/parallel/cold/warm runs,
/// exact knob-edit invalidation (cross-checked against the graph's
/// structural dependents_of), and agreement between pipeline artifacts
/// and the direct (non-pipeline) code paths they migrated from.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "analysis/shipped.hpp"
#include "obs/exporters.hpp"
#include "pipeline/pipeline.hpp"
#include "scenario/scenario.hpp"
#include "ward/ward_config.hpp"

namespace pipeline = mcps::pipeline;
namespace scenario = mcps::scenario;
namespace analysis = mcps::analysis;
namespace ward = mcps::ward;
namespace obs = mcps::obs;

namespace {

ward::WardConfig small_ward(std::uint64_t seed = 7) {
    ward::WardConfig cfg;
    cfg.seed = seed;
    cfg.patients = 4;
    cfg.shards = 4;
    cfg.jobs = 1;
    return cfg;
}

/// A representative multi-stage graph: two scenario runs (one traced),
/// the pure analysis stages, and a small ward campaign with merge.
/// \p pca_seed parameterizes the single knob the invalidation tests
/// edit.
pipeline::PipelineGraph build_graph(std::uint64_t pca_seed = 42,
                                    std::uint64_t ward_seed = 7) {
    pipeline::PipelineGraph g;

    scenario::ScenarioSpec pca = scenario::registry().default_spec("pca");
    pca.seed = pca_seed;
    pca.minutes = 2;
    pipeline::add_scenario_pass(g, "pca", pca);
    pipeline::add_trace_export_pass(g, "pca");

    scenario::ScenarioSpec xray = scenario::registry().default_spec("xray");
    xray.minutes = 2;
    pipeline::add_scenario_pass(g, "xray", xray);

    pipeline::AnalysisPassOptions a;
    a.hazards = false;
    a.deadlines = false;  // keep the suite fast: models + assemblies
    pipeline::add_analysis_passes(g, a);

    pipeline::add_ward_pass(g, "w1", small_ward(ward_seed));
    pipeline::add_ward_merge_pass(g, {"w1"});
    return g;
}

std::vector<std::string> executed_passes(const pipeline::PipelineResult& r) {
    std::vector<std::string> out;
    for (const auto& p : r.passes) {
        if (!p.from_cache) out.push_back(p.name);
    }
    return out;
}

TEST(PipelineDeterminism, ColdWarmParallelManifestsAreByteIdentical) {
    const pipeline::PipelineGraph g = build_graph();
    pipeline::ArtifactCache cache;

    const pipeline::PipelineResult cold = g.run({.jobs = 1, .cache = &cache});
    EXPECT_EQ(cold.cache_hits, 0u);
    EXPECT_GT(cold.cache_misses, 0u);

    const pipeline::PipelineResult warm = g.run({.jobs = 1, .cache = &cache});
    EXPECT_EQ(warm.cache_misses, 0u);
    for (const auto& p : warm.passes) EXPECT_TRUE(p.from_cache) << p.name;

    pipeline::ArtifactCache fresh;
    const pipeline::PipelineResult wide = g.run({.jobs = 8, .cache = &fresh});

    const pipeline::PipelineResult uncached = g.run({});

    EXPECT_EQ(cold.manifest(), warm.manifest());
    EXPECT_EQ(cold.manifest(), wide.manifest());
    EXPECT_EQ(cold.manifest(), uncached.manifest());
    EXPECT_EQ(cold.digest(), wide.digest());
    EXPECT_EQ(cold.digest(), uncached.digest());

    // The manifest covers every artifact in the graph: one key per pass
    // output plus the three provided sources (two specs, one ward
    // config). Keys only address the cache, so a run without one has
    // none.
    EXPECT_EQ(cold.artifacts.size(), cold.keys.size() + 3u);
    EXPECT_EQ(warm.keys, cold.keys);
    EXPECT_TRUE(uncached.keys.empty());
    EXPECT_EQ(uncached.artifacts.size(), cold.artifacts.size());
}

TEST(PipelineDeterminism, ScenarioKnobEditInvalidatesExactlyDownstream) {
    pipeline::ArtifactCache cache;
    const pipeline::PipelineGraph base = build_graph(/*pca_seed=*/42);
    const pipeline::PipelineResult cold = base.run({.cache = &cache});

    // Same graph, one knob edited: the pca spec's seed.
    const pipeline::PipelineGraph edited = build_graph(/*pca_seed=*/43);
    const pipeline::PipelineResult warm = edited.run({.cache = &cache});

    // Structural ground truth: what a change to the pca spec reaches.
    const std::vector<std::string> expect =
        edited.dependents_of("spec/pca");
    ASSERT_EQ(expect, (std::vector<std::string>{"run:pca", "trace:pca"}));
    EXPECT_EQ(executed_passes(warm), expect);

    // Everything outside the invalidated cone replayed from cache.
    EXPECT_EQ(warm.cache_hits + warm.cache_misses,
              cold.cache_hits + cold.cache_misses);
    EXPECT_NE(warm.manifest(), cold.manifest());
    // The untouched scenario's artifacts are bit-identical.
    EXPECT_EQ(warm.at("run/xray/fingerprint").payload,
              cold.at("run/xray/fingerprint").payload);
}

TEST(PipelineDeterminism, WardKnobEditInvalidatesExactlyDownstream) {
    pipeline::ArtifactCache cache;
    const pipeline::PipelineGraph base = build_graph(42, /*ward_seed=*/7);
    (void)base.run({.cache = &cache});

    const pipeline::PipelineGraph edited = build_graph(42, /*ward_seed=*/8);
    const pipeline::PipelineResult warm = edited.run({.cache = &cache});

    const std::vector<std::string> expect =
        edited.dependents_of("ward/w1/config");
    ASSERT_EQ(expect, (std::vector<std::string>{"ward:w1", "ward:merge"}));
    EXPECT_EQ(executed_passes(warm), expect);
}

TEST(PipelineDeterminism, UneditedRerunExecutesNothing) {
    pipeline::ArtifactCache cache;
    const pipeline::PipelineGraph g = build_graph();
    (void)g.run({.cache = &cache});
    const pipeline::PipelineResult warm = g.run({.cache = &cache});
    EXPECT_TRUE(executed_passes(warm).empty());
}

TEST(PipelinePasses, ScenarioPassMatchesDirectRun) {
    pipeline::PipelineGraph g;
    scenario::ScenarioSpec spec = scenario::registry().default_spec("pca");
    spec.minutes = 2;
    pipeline::add_scenario_pass(g, "pca", spec);
    const pipeline::PipelineResult r = g.run();

    const scenario::RunArtifacts direct =
        scenario::registry().run(spec, {});
    EXPECT_EQ(r.at("run/pca/fingerprint").payload,
              direct.fingerprint_hex() + "\n");
    std::ostringstream json;
    direct.write_json(json);
    EXPECT_EQ(r.at("run/pca/artifacts").payload, json.str());
}

TEST(PipelinePasses, TraceExportMatchesDirectWriter) {
    pipeline::PipelineGraph g;
    scenario::ScenarioSpec spec = scenario::registry().default_spec("xray");
    spec.minutes = 2;
    pipeline::add_scenario_pass(g, "xray", spec);
    pipeline::add_trace_export_pass(g, "xray");
    const pipeline::PipelineResult r = g.run();

    std::istringstream events_in{r.at("run/xray/events").payload};
    const obs::EventLog events = obs::read_jsonl(events_in);
    std::ostringstream chrome;
    obs::write_chrome_trace(events, chrome);
    EXPECT_EQ(r.at("trace/xray/chrome").payload, chrome.str());
}

TEST(PipelinePasses, AnalysisMergeMatchesDirectAnalyzer) {
    pipeline::PipelineGraph g;
    pipeline::AnalysisPassOptions opts;
    opts.hazards = false;
    opts.deadlines = false;
    pipeline::add_analysis_passes(g, opts);
    const pipeline::PipelineResult r = g.run();

    // The same stages through one Analyzer, no pipeline involved.
    analysis::Analyzer direct{analysis::SuppressionSet{}};
    analysis::add_shipped_ta_models(direct);
    analysis::add_shipped_assemblies(direct);
    std::ostringstream json;
    direct.report().write_json(json);
    EXPECT_EQ(r.at("analysis/report").payload, json.str());

    std::ostringstream sarif;
    analysis::write_sarif(direct.report(), sarif);
    EXPECT_EQ(r.at("analysis/sarif").payload, sarif.str());
}

TEST(PipelinePasses, AnalysisRejectsUnknownSuppressRule) {
    pipeline::PipelineGraph g;
    pipeline::AnalysisPassOptions opts;
    opts.suppress = "TA2,NOPE9";
    EXPECT_THROW(pipeline::add_analysis_passes(g, opts),
                 pipeline::PipelineError);
}

TEST(PipelinePasses, SuppressKnobChangesAnalysisKeys) {
    // Suppression is part of each stage's params: editing it must
    // invalidate the analysis passes even though they have no inputs.
    pipeline::ArtifactCache cache;
    pipeline::AnalysisPassOptions opts;
    opts.hazards = false;
    opts.deadlines = false;

    pipeline::PipelineGraph g1;
    pipeline::add_analysis_passes(g1, opts);
    (void)g1.run({.cache = &cache});

    opts.suppress = "TA2";
    pipeline::PipelineGraph g2;
    pipeline::add_analysis_passes(g2, opts);
    const pipeline::PipelineResult warm = g2.run({.cache = &cache});
    for (const auto& p : warm.passes) {
        // Early cutoff: the re-run stages emit byte-identical findings
        // (no TA2 findings existed to suppress), so the merge's input
        // digests are unchanged and it may replay from cache.
        if (p.name == "analyze:merge") continue;
        EXPECT_FALSE(p.from_cache) << p.name;
    }
}

TEST(PipelinePasses, WardReportArtifactZeroesWallTime) {
    pipeline::PipelineGraph g;
    pipeline::add_ward_pass(g, "w1", small_ward());
    const pipeline::PipelineResult r = g.run();
    const std::string& json = r.at("ward/w1/report").payload;
    EXPECT_NE(json.find("\"wall_seconds\": 0"), std::string::npos);
    // Running twice yields the same bytes (nothing run-varying leaked).
    const pipeline::PipelineResult again = g.run();
    EXPECT_EQ(again.at("ward/w1/report").payload, json);
}

TEST(PipelinePasses, WardMergeFoldsFingerprints) {
    pipeline::PipelineGraph g;
    pipeline::add_ward_pass(g, "w1", small_ward(7));
    pipeline::add_ward_pass(g, "w2", small_ward(8));
    pipeline::add_ward_merge_pass(g, {"w1", "w2"});
    const pipeline::PipelineResult r = g.run();

    const std::string& summary = r.at("ward/summary").payload;
    std::string fp1 = r.at("ward/w1/fingerprint").payload;
    fp1.pop_back();  // trailing newline
    EXPECT_NE(summary.find("w1\t" + fp1 + "\n"), std::string::npos);
    EXPECT_NE(summary.find("combined\t0x"), std::string::npos);
}

TEST(WardConfigText, RoundTripsThroughParse) {
    const ward::WardConfig cfg = small_ward();
    const std::string text = pipeline::ward_config_to_text(cfg);
    const ward::WardConfig back = pipeline::parse_ward_config(text);
    EXPECT_EQ(pipeline::ward_config_to_text(back), text);
    EXPECT_EQ(back.seed, cfg.seed);
    EXPECT_EQ(back.patients, cfg.patients);
    EXPECT_EQ(back.shards, cfg.shards);
}

TEST(WardConfigText, RejectsMalformedSpecs) {
    EXPECT_THROW((void)pipeline::parse_ward_config("bogus_key=1"),
                 ward::WardConfigError);
    EXPECT_THROW((void)pipeline::parse_ward_config("seed=notanumber"),
                 ward::WardConfigError);
    EXPECT_THROW((void)pipeline::parse_ward_config("no-equals-sign"),
                 ward::WardConfigError);
    // jobs is bounded like --jobs: no silent wrap of 2^32 + 1 to 1.
    for (const char* jobs : {"257", "1000", "4294967297"}) {
        try {
            (void)pipeline::parse_ward_config(std::string{"jobs="} + jobs);
            ADD_FAILURE() << "accepted jobs=" << jobs;
        } catch (const ward::WardConfigError& e) {
            EXPECT_EQ(std::string{e.what()},
                      std::string{"ward config: jobs "} + jobs +
                          " is above the maximum 256");
        }
    }
    EXPECT_EQ(pipeline::parse_ward_config("jobs=256").jobs, 256u);
}

}  // namespace
