/// \file test_graph.cpp
/// \brief PipelineGraph unit tests: validation errors, deterministic
/// topological scheduling, serial-vs-parallel equivalence, cache
/// replay semantics and metrics recording.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/pipeline.hpp"

namespace pipeline = mcps::pipeline;

namespace {

/// A pass that concatenates its inputs (name-prefixed) into one output.
/// Bodies are pure functions of declared inputs, so the graph's
/// determinism contract holds by construction.
pipeline::Pass concat_pass(std::string name,
                           std::vector<std::string> inputs,
                           std::string output,
                           std::atomic<int>* executions = nullptr) {
    pipeline::Pass p;
    p.name = name;
    p.inputs = inputs;
    p.outputs = {output};
    p.run = [name, inputs, output, executions](pipeline::PassContext& ctx) {
        if (executions != nullptr) executions->fetch_add(1);
        std::string payload = name + ":";
        for (const auto& in : inputs) payload += ctx.input(in).payload + "|";
        ctx.emit(output, {"text", payload});
    };
    return p;
}

/// source -> a -> b, plus an independent c off the same source.
pipeline::PipelineGraph diamondish(std::atomic<int>* a_runs = nullptr,
                                   std::atomic<int>* b_runs = nullptr,
                                   std::atomic<int>* c_runs = nullptr) {
    pipeline::PipelineGraph g;
    g.provide("src", {"text", "seed"});
    g.add(concat_pass("a", {"src"}, "out/a", a_runs));
    g.add(concat_pass("b", {"out/a"}, "out/b", b_runs));
    g.add(concat_pass("c", {"src"}, "out/c", c_runs));
    return g;
}

TEST(PipelineGraph, RejectsDuplicateSource) {
    pipeline::PipelineGraph g;
    g.provide("src", {"text", "x"});
    EXPECT_THROW(g.provide("src", {"text", "y"}), pipeline::PipelineError);
}

TEST(PipelineGraph, RejectsDuplicatePassName) {
    pipeline::PipelineGraph g;
    g.provide("src", {"text", "x"});
    g.add(concat_pass("a", {"src"}, "out/a"));
    EXPECT_THROW(g.add(concat_pass("a", {"src"}, "out/a2")),
                 pipeline::PipelineError);
}

TEST(PipelineGraph, RejectsDuplicateOutput) {
    pipeline::PipelineGraph g;
    g.provide("src", {"text", "x"});
    g.add(concat_pass("a", {"src"}, "out/shared"));
    EXPECT_THROW(g.add(concat_pass("b", {"src"}, "out/shared")),
                 pipeline::PipelineError);
}

TEST(PipelineGraph, RejectsOutputCollidingWithSource) {
    pipeline::PipelineGraph g;
    g.provide("src", {"text", "x"});
    EXPECT_THROW(g.add(concat_pass("a", {"src"}, "src")),
                 pipeline::PipelineError);
}

TEST(PipelineGraph, RejectsUnknownInput) {
    pipeline::PipelineGraph g;
    g.add(concat_pass("a", {"nowhere"}, "out/a"));
    EXPECT_THROW((void)g.topo_order(), pipeline::PipelineError);
}

TEST(PipelineGraph, RejectsCycle) {
    pipeline::PipelineGraph g;
    g.add(concat_pass("a", {"out/b"}, "out/a"));
    g.add(concat_pass("b", {"out/a"}, "out/b"));
    EXPECT_THROW((void)g.topo_order(), pipeline::PipelineError);
}

TEST(PipelineGraph, TopoOrderBreaksTiesByRegistrationOrder) {
    pipeline::PipelineGraph g;
    g.provide("src", {"text", "x"});
    // z registered before m: both ready immediately, z must come first.
    g.add(concat_pass("z", {"src"}, "out/z"));
    g.add(concat_pass("m", {"src"}, "out/m"));
    g.add(concat_pass("tail", {"out/z", "out/m"}, "out/tail"));
    const std::vector<std::string> expect{"z", "m", "tail"};
    EXPECT_EQ(g.topo_order(), expect);
}

TEST(PipelineGraph, DependentsOfIsTransitive) {
    const pipeline::PipelineGraph g = diamondish();
    const std::vector<std::string> from_src{"a", "b", "c"};
    EXPECT_EQ(g.dependents_of("src"), from_src);
    const std::vector<std::string> from_a{"b"};
    EXPECT_EQ(g.dependents_of("out/a"), from_a);
    EXPECT_TRUE(g.dependents_of("out/b").empty());
    EXPECT_TRUE(g.dependents_of("out/unknown").empty());
}

TEST(PipelineGraph, FailingPassNamesThePass) {
    pipeline::PipelineGraph g;
    g.provide("src", {"text", "x"});
    // Independent siblings give jobs = 8 more than one worker.
    for (int i = 0; i < 6; ++i) {
        const std::string name = "ok" + std::to_string(i);
        g.add(concat_pass(name, {"src"}, "out/" + name));
    }
    pipeline::Pass bad;
    bad.name = "explodes";
    bad.inputs = {"src"};
    bad.outputs = {"out/bad"};
    bad.run = [](pipeline::PassContext&) {
        throw std::runtime_error{"boom"};
    };
    g.add(bad);
    g.add(concat_pass("after", {"out/bad"}, "out/after"));
    for (const unsigned jobs : {1u, 8u}) {
        try {
            (void)g.run({.jobs = jobs});
            FAIL() << "expected PipelineError at jobs " << jobs;
        } catch (const pipeline::PipelineError& e) {
            EXPECT_NE(std::string{e.what()}.find("explodes"),
                      std::string::npos)
                << "jobs " << jobs;
            EXPECT_NE(std::string{e.what()}.find("boom"), std::string::npos)
                << "jobs " << jobs;
        }
    }
}

TEST(PipelineGraph, JobsOneRunsBodiesInTopoOrderOnTheCaller) {
    // "tail" is registered first but reads "x"'s output, so execution
    // order differs from registration order.
    std::vector<std::string> ran;
    std::vector<std::thread::id> threads;
    const auto recording = [&](std::string name, std::vector<std::string> in,
                               std::string out) {
        pipeline::Pass p = concat_pass(name, in, out);
        p.run = [&ran, &threads, name, out](pipeline::PassContext& ctx) {
            ran.push_back(name);
            threads.push_back(std::this_thread::get_id());
            ctx.emit(out, {"text", name});
        };
        return p;
    };
    pipeline::PipelineGraph g;
    g.provide("src", {"text", "seed"});
    g.add(recording("tail", {"out/x"}, "out/tail"));
    g.add(recording("x", {"src"}, "out/x"));
    g.add(recording("y", {"src"}, "out/y"));
    g.add(recording("z", {"out/tail", "out/y"}, "out/z"));

    const pipeline::PipelineResult r = g.run({.jobs = 1});
    const std::vector<std::string> expect{"x", "tail", "y", "z"};
    EXPECT_EQ(g.topo_order(), expect);
    EXPECT_EQ(ran, expect);
    for (const std::thread::id id : threads) {
        EXPECT_EQ(id, std::this_thread::get_id());
    }
    ASSERT_EQ(r.passes.size(), 4u);
    for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(r.passes[i].name, expect[i]);
    }
}

TEST(PipelineGraph, MissingEmitIsAnError) {
    pipeline::PipelineGraph g;
    g.provide("src", {"text", "x"});
    pipeline::Pass lazy;
    lazy.name = "lazy";
    lazy.inputs = {"src"};
    lazy.outputs = {"out/never"};
    lazy.run = [](pipeline::PassContext&) {};
    g.add(lazy);
    EXPECT_THROW((void)g.run(), pipeline::PipelineError);
}

TEST(PipelineGraph, UndeclaredEmitIsAnError) {
    pipeline::PipelineGraph g;
    g.provide("src", {"text", "x"});
    pipeline::Pass sneaky;
    sneaky.name = "sneaky";
    sneaky.inputs = {"src"};
    sneaky.outputs = {"out/declared"};
    sneaky.run = [](pipeline::PassContext& ctx) {
        ctx.emit("out/declared", {"text", "ok"});
        ctx.emit("out/extra", {"text", "smuggled"});
    };
    g.add(sneaky);
    EXPECT_THROW((void)g.run(), pipeline::PipelineError);
}

TEST(PipelineGraph, UndeclaredInputIsAnError) {
    pipeline::PipelineGraph g;
    g.provide("src", {"text", "x"});
    g.provide("other", {"text", "y"});
    pipeline::Pass greedy;
    greedy.name = "greedy";
    greedy.inputs = {"src"};
    greedy.outputs = {"out/g"};
    greedy.run = [](pipeline::PassContext& ctx) {
        (void)ctx.input("other");  // not declared
        ctx.emit("out/g", {"text", "x"});
    };
    g.add(greedy);
    EXPECT_THROW((void)g.run(), pipeline::PipelineError);
}

TEST(PipelineGraph, SerialAndParallelManifestsAreIdentical) {
    const pipeline::PipelineGraph g = diamondish();
    const pipeline::PipelineResult serial = g.run({.jobs = 1});
    const pipeline::PipelineResult parallel = g.run({.jobs = 8});
    EXPECT_EQ(serial.manifest(), parallel.manifest());
    EXPECT_EQ(serial.digest(), parallel.digest());
    // Topological reporting order regardless of execution order.
    ASSERT_EQ(parallel.passes.size(), 3u);
    EXPECT_EQ(parallel.passes[0].name, "a");
    EXPECT_EQ(parallel.passes[1].name, "b");
    EXPECT_EQ(parallel.passes[2].name, "c");
    // Artifacts include sources and every output.
    EXPECT_EQ(serial.artifacts.size(), 4u);
    EXPECT_EQ(serial.at("out/b").payload, "b:a:seed||");
}

TEST(PipelineGraph, ResultAtThrowsOnUnknownArtifact) {
    const pipeline::PipelineGraph g = diamondish();
    const pipeline::PipelineResult r = g.run();
    EXPECT_THROW((void)r.at("out/nope"), pipeline::PipelineError);
}

TEST(PipelineGraph, WarmCacheReplaysWithoutExecutingBodies) {
    std::atomic<int> a_runs{0}, b_runs{0}, c_runs{0};
    const pipeline::PipelineGraph g = diamondish(&a_runs, &b_runs, &c_runs);
    pipeline::ArtifactCache cache;

    const pipeline::PipelineResult cold = g.run({.cache = &cache});
    EXPECT_EQ(cold.cache_misses, 3u);
    EXPECT_EQ(cold.cache_hits, 0u);
    EXPECT_EQ(a_runs.load(), 1);

    const pipeline::PipelineResult warm = g.run({.cache = &cache});
    EXPECT_EQ(warm.cache_hits, 3u);
    EXPECT_EQ(warm.cache_misses, 0u);
    // Bodies did not run again: replayed from cache.
    EXPECT_EQ(a_runs.load(), 1);
    EXPECT_EQ(b_runs.load(), 1);
    EXPECT_EQ(c_runs.load(), 1);
    for (const auto& p : warm.passes) EXPECT_TRUE(p.from_cache);
    EXPECT_EQ(warm.manifest(), cold.manifest());
}

TEST(PipelineGraph, NonCacheablePassAlwaysExecutes) {
    std::atomic<int> runs{0};
    pipeline::PipelineGraph g;
    g.provide("src", {"text", "x"});
    pipeline::Pass p = concat_pass("scan", {"src"}, "out/scan", &runs);
    p.cacheable = false;
    g.add(p);
    pipeline::ArtifactCache cache;
    (void)g.run({.cache = &cache});
    const pipeline::PipelineResult again = g.run({.cache = &cache});
    EXPECT_EQ(runs.load(), 2);
    EXPECT_FALSE(again.passes[0].from_cache);
}

TEST(PipelineGraph, RecordMetricsPublishesCountersAndGauges) {
    const pipeline::PipelineGraph g = diamondish();
    pipeline::ArtifactCache cache;
    mcps::obs::MetricsRegistry metrics;

    (void)g.run({.cache = &cache, .metrics = &metrics});
    (void)g.run({.cache = &cache, .metrics = &metrics});

    const auto* runs = metrics.find_counter("pipeline/runs");
    ASSERT_NE(runs, nullptr);
    EXPECT_EQ(runs->value(), 2u);
    const auto* hits = metrics.find_counter("pipeline/cache/hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_EQ(hits->value(), 3u);
    const auto* misses = metrics.find_counter("pipeline/cache/misses");
    ASSERT_NE(misses, nullptr);
    EXPECT_EQ(misses->value(), 3u);

    // Cold run counts executions, warm run counts replays.
    const auto* a_runs = metrics.find_counter("pipeline/pass/a/runs");
    ASSERT_NE(a_runs, nullptr);
    EXPECT_EQ(a_runs->value(), 1u);
    const auto* a_replays = metrics.find_counter("pipeline/pass/a/replays");
    ASSERT_NE(a_replays, nullptr);
    EXPECT_EQ(a_replays->value(), 1u);
    EXPECT_NE(metrics.find_gauge("pipeline/pass/a/wall_us"), nullptr);
}

TEST(PipelineGraph, ParallelRunWithManyIndependentPasses) {
    // Wide fan-out exercises the executor's dependency counting: 24
    // independent passes feeding one join must produce the serial bytes.
    pipeline::PipelineGraph g;
    g.provide("src", {"text", "seed"});
    std::vector<std::string> fan_outputs;
    for (int i = 0; i < 24; ++i) {
        const std::string name = "fan" + std::to_string(i);
        fan_outputs.push_back("out/" + name);
        g.add(concat_pass(name, {"src"}, fan_outputs.back()));
    }
    g.add(concat_pass("join", fan_outputs, "out/join"));

    const pipeline::PipelineResult serial = g.run({.jobs = 1});
    const pipeline::PipelineResult wide = g.run({.jobs = 16});
    EXPECT_EQ(serial.manifest(), wide.manifest());
    EXPECT_EQ(serial.at("out/join").payload, wide.at("out/join").payload);
}

}  // namespace
