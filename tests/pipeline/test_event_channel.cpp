/// \file test_event_channel.cpp
/// \brief The typed event-log channel (PassContext::emit_events /
/// events()): a consumer sees the producer's live log, or the bytes
/// decoded once when the producer replayed from a cache, and either way
/// exports the same Chrome bytes a direct events-on run does. Artifact
/// bytes, result and cache alike, stay what the byte-only path wrote.

#include <gtest/gtest.h>

#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "obs/exporters.hpp"
#include "pipeline/pipeline.hpp"
#include "scenario/scenario.hpp"

namespace pipeline = mcps::pipeline;
namespace scenario = mcps::scenario;
namespace obs = mcps::obs;

namespace {

constexpr const char* kPresets[] = {"pca", "pca-open", "smart-alarm", "xray",
                                    "xray-manual"};
constexpr unsigned kJobs[] = {1, 4};

scenario::ScenarioSpec short_spec(const std::string& preset) {
    scenario::ScenarioSpec spec = scenario::registry().default_spec(preset);
    spec.minutes = 5;
    return spec;
}

pipeline::PipelineGraph traced_graph(const std::string& id,
                                     const scenario::ScenarioSpec& spec) {
    pipeline::PipelineGraph g;
    pipeline::add_scenario_pass(g, id, spec);
    pipeline::add_trace_export_pass(g, id);
    return g;
}

bool from_cache(const pipeline::PipelineResult& r, const std::string& pass) {
    for (const auto& p : r.passes) {
        if (p.name == pass) return p.from_cache;
    }
    ADD_FAILURE() << "no pass " << pass;
    return false;
}

/// Every keyed artifact of \p r is in \p cache with the same bytes.
void expect_cache_holds(pipeline::ArtifactCache& cache,
                        const pipeline::PipelineResult& r) {
    for (const auto& [name, key] : r.keys) {
        const auto hit = cache.lookup(key);
        ASSERT_TRUE(hit.has_value()) << name;
        EXPECT_EQ(hit->kind, r.at(name).kind) << name;
        EXPECT_EQ(hit->payload, r.at(name).payload) << name;
    }
}

TEST(EventChannel, ChromeIsIdenticalColdReplayedAndDirect) {
    for (const char* preset : kPresets) {
        const std::string id = preset;
        const scenario::ScenarioSpec spec = short_spec(id);

        obs::EventLog direct_log;
        scenario::RunOptions on;
        on.events = &direct_log;
        const scenario::RunArtifacts direct =
            scenario::registry().run(spec, on);
        std::string direct_chrome;
        obs::write_chrome_trace(direct_log, direct_chrome);
        std::string direct_jsonl;
        obs::write_jsonl(direct_log, direct_jsonl);
        std::ostringstream direct_json;
        direct.write_json(direct_json);

        for (const unsigned jobs : kJobs) {
            SCOPED_TRACE(id + " jobs=" + std::to_string(jobs));
            const pipeline::PipelineGraph g = traced_graph(id, spec);

            // Cold: the trace pass reads run:<id>'s live log.
            pipeline::ArtifactCache cold_cache;
            const pipeline::PipelineResult cold =
                g.run({.jobs = jobs, .cache = &cold_cache});
            EXPECT_FALSE(from_cache(cold, "trace:" + id));

            // Replayed: a cache holding only run:<id>'s outputs, so the
            // trace pass decodes the cached JSONL bytes.
            pipeline::ArtifactCache run_only;
            pipeline::PipelineGraph run_graph;
            pipeline::add_scenario_pass(run_graph, id, spec);
            (void)run_graph.run({.jobs = jobs, .cache = &run_only});
            ASSERT_EQ(run_only.size(), 3u);
            const pipeline::PipelineResult replayed =
                g.run({.jobs = jobs, .cache = &run_only});
            EXPECT_TRUE(from_cache(replayed, "run:" + id));
            EXPECT_FALSE(from_cache(replayed, "trace:" + id));

            const std::string chrome = "trace/" + id + "/chrome";
            EXPECT_EQ(cold.at(chrome).payload, direct_chrome);
            EXPECT_EQ(replayed.at(chrome).payload, direct_chrome);

            // The artifacts are the byte-only path's: JSONL of the log,
            // the run JSON, the fingerprint, in result and cache alike.
            const std::string run = "run/" + id + "/";
            EXPECT_EQ(cold.at(run + "events").kind, "events-jsonl");
            EXPECT_EQ(cold.at(run + "events").payload, direct_jsonl);
            EXPECT_EQ(cold.at(run + "artifacts").payload, direct_json.str());
            EXPECT_EQ(cold.at(run + "fingerprint").payload,
                      direct.fingerprint_hex() + "\n");
            EXPECT_EQ(cold.manifest(), replayed.manifest());
            EXPECT_EQ(cold.manifest(), g.run({.jobs = jobs}).manifest());
            EXPECT_EQ(cold_cache.size(), cold.keys.size());
            expect_cache_holds(cold_cache, cold);
            EXPECT_EQ(run_only.size(), replayed.keys.size());
            expect_cache_holds(run_only, replayed);
        }
    }
}

obs::EventLog small_log() {
    obs::EventLog log;
    log.emit(obs::EventKind::kAlarm, mcps::sim::SimTime::origin(), "oxi1",
             "spo2-low", 88.0);
    log.emit(obs::EventKind::kDeviceState, mcps::sim::SimTime::origin(),
             "pump1", "button");
    return log;
}

/// "src" -> producer "make" -> "ev" (an event log) -> two readers, each
/// of which records the address of the log it was handed and emits
/// its Chrome trace.
struct SharedLogGraph {
    pipeline::PipelineGraph g;
    std::mutex mu;
    std::vector<const obs::EventLog*> seen;

    SharedLogGraph() {
        g.provide("src", pipeline::Artifact{"text", "x"});
        pipeline::Pass make;
        make.name = "make";
        make.inputs = {"src"};
        make.outputs = {"ev"};
        make.run = [](pipeline::PassContext& ctx) {
            ctx.emit_events("ev", small_log());
        };
        g.add(std::move(make));
        for (const char* name : {"read-a", "read-b"}) {
            pipeline::Pass read;
            read.name = name;
            read.inputs = {"ev"};
            read.outputs = {std::string{name} + "/chrome"};
            read.run = [this, name](pipeline::PassContext& ctx) {
                const obs::EventLog& log = ctx.events("ev");
                {
                    std::lock_guard lk{mu};
                    seen.push_back(&log);
                }
                std::string chrome;
                obs::write_chrome_trace(log, chrome);
                ctx.emit(std::string{name} + "/chrome",
                         pipeline::Artifact{"chrome-trace", chrome});
            };
            g.add(std::move(read));
        }
    }
};

TEST(EventChannel, ConsumersShareOneLogLiveOrDecoded) {
    std::string jsonl;
    obs::write_jsonl(small_log(), jsonl);
    std::string chrome;
    obs::write_chrome_trace(small_log(), chrome);

    for (const unsigned jobs : kJobs) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        for (const bool replay_producer : {false, true}) {
            pipeline::ArtifactCache cache;
            if (replay_producer) {
                // Keep only the producer's output: the readers decode.
                pipeline::ArtifactCache full;
                const std::string key =
                    SharedLogGraph{}.g.run({.cache = &full}).keys.at("ev");
                cache.insert(key, *full.lookup(key));
            }
            SharedLogGraph s;
            const pipeline::PipelineResult r =
                s.g.run({.jobs = jobs, .cache = &cache});
            EXPECT_EQ(from_cache(r, "make"), replay_producer);
            ASSERT_EQ(s.seen.size(), 2u);
            EXPECT_EQ(s.seen[0], s.seen[1]);
            EXPECT_EQ(r.at("ev").kind, "events-jsonl");
            EXPECT_EQ(r.at("ev").payload, jsonl);
            EXPECT_EQ(r.at("read-a/chrome").payload, chrome);
            EXPECT_EQ(r.at("read-b/chrome").payload, chrome);
        }
    }
}

TEST(EventChannel, ProvidedEventLogIsDecoded) {
    std::string jsonl;
    obs::write_jsonl(small_log(), jsonl);
    pipeline::PipelineGraph g;
    g.provide("ev", pipeline::Artifact{"events-jsonl", jsonl});
    pipeline::Pass read;
    read.name = "read";
    read.inputs = {"ev"};
    read.outputs = {"n"};
    read.run = [](pipeline::PassContext& ctx) {
        EXPECT_TRUE(ctx.events("ev") == small_log());
        ctx.emit("n", pipeline::Artifact{
                          "count", std::to_string(ctx.events("ev").size())});
    };
    g.add(std::move(read));
    EXPECT_EQ(g.run().at("n").payload, "2");
}

/// Run a one-pass graph over source "spec" whose body is \p body; the
/// error message it fails with.
std::string failure_of(std::function<void(pipeline::PassContext&)> body) {
    pipeline::PipelineGraph g;
    g.provide("spec", pipeline::Artifact{"spec", "pca"});
    pipeline::Pass p;
    p.name = "p";
    p.inputs = {"spec"};
    p.outputs = {"out"};
    p.run = std::move(body);
    g.add(std::move(p));
    try {
        (void)g.run();
    } catch (const pipeline::PipelineError& e) {
        return e.what();
    }
    return "";
}

TEST(EventChannel, RefusesUndeclaredAndNonLogArtifacts) {
    EXPECT_EQ(failure_of([](pipeline::PassContext& ctx) {
                  (void)ctx.events("ev");
              }),
              "pass 'p' reads undeclared input 'ev'");
    EXPECT_EQ(failure_of([](pipeline::PassContext& ctx) {
                  (void)ctx.events("spec");
              }),
              "pass 'p' reads input 'spec' of kind 'spec' as an event log");
    EXPECT_EQ(failure_of([](pipeline::PassContext& ctx) {
                  ctx.emit_events("other", small_log());
              }),
              "pass 'p' emits undeclared output 'other'");
}

}  // namespace
