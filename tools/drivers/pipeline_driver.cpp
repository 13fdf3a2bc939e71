/// \file pipeline_driver.cpp
/// \brief The composable pipeline driver: build a pass graph from
/// flags, run it over cached artifacts, export everything (see
/// drivers.hpp and src/pipeline/pipeline.hpp).
///
/// The graph is assembled from repeatable stage flags: each --spec /
/// --preset adds a scenario-run pass (--trace chains a Chrome-trace
/// export pass onto each), --analysis adds the model-level analysis
/// passes and their merge, each --ward adds a ward-campaign pass (plus
/// one merge pass over all campaigns). Passes with satisfied inputs run
/// in parallel under --jobs; --cache makes re-runs incremental (only
/// passes downstream of a changed input re-execute, shown by the
/// hit/miss counters).
///
/// `--verify` is the determinism gate: the same graph is run
/// serial-cold, parallel-cold and serial-warm (replayed from the cold
/// run's cache), and the three artifact manifests must be
/// byte-identical.
///
/// Exit codes: 0 = success, 1 = --verify manifest mismatch,
/// 2 = usage or I/O error.

#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "../cli.hpp"
#include "../drivers.hpp"
#include "obs/obs.hpp"
#include "pipeline/pipeline.hpp"
#include "scenario/scenario.hpp"
#include "sim/hash.hpp"

namespace pipeline = mcps::pipeline;
namespace scenario = mcps::scenario;
using mcps::cli::CliError;

namespace {

/// Scenario pass ids default to the scenario name; duplicates get a
/// positional suffix so `--preset pca --preset pca` stays legal.
std::string unique_id(std::vector<std::string>& taken,
                      const std::string& base) {
    std::string id = base;
    for (std::size_t n = 2;; ++n) {
        bool clash = false;
        for (const auto& t : taken) {
            if (t == id) {
                clash = true;
                break;
            }
        }
        if (!clash) break;
        id = base + "-" + std::to_string(n);
    }
    taken.push_back(id);
    return id;
}

pipeline::PipelineGraph build_graph(const mcps::cli::Parsed& p) {
    pipeline::PipelineGraph g;
    std::vector<std::string> scenario_ids;

    auto add_scenario = [&](const scenario::ScenarioSpec& spec) {
        if (p.has("--trace")) {
            mcps::drivers::require_event_log("--trace", spec.name);
        }
        pipeline::add_scenario_pass(
            g, unique_id(scenario_ids, spec.name), spec);
    };
    for (const std::string& text : p.all("--spec")) {
        add_scenario(scenario::parse_spec(text));
    }
    for (const std::string& name : p.all("--preset")) {
        add_scenario(scenario::registry().default_spec(name));
    }
    if (p.has("--trace")) {
        if (scenario_ids.empty()) {
            throw CliError{"--trace: no --spec or --preset pass to trace"};
        }
        for (const std::string& id : scenario_ids) {
            pipeline::add_trace_export_pass(g, id);
        }
    }
    if (p.has("--analysis")) {
        // The scan stages are deliberately absent here: they read the
        // working tree, so their output depends on the invocation
        // directory. The analyze driver stays the scan surface.
        pipeline::add_analysis_passes(g, pipeline::AnalysisPassOptions{});
    }
    const std::vector<std::string> wards = p.all("--ward");
    std::vector<std::string> ward_ids;
    for (std::size_t i = 0; i < wards.size(); ++i) {
        // Two-step concatenation sidesteps GCC 12's -Wrestrict false
        // positive on `const char* + std::string&&` (GCC bug 105329).
        std::string id{"w"};
        id += std::to_string(i + 1);
        ward_ids.push_back(id);
        pipeline::add_ward_pass(g, id,
                                pipeline::parse_ward_config(wards[i]));
    }
    if (!ward_ids.empty()) pipeline::add_ward_merge_pass(g, ward_ids);

    if (g.pass_count() == 0) {
        throw CliError{
            "nothing to do: add --spec/--preset/--analysis/--ward"};
    }
    return g;
}

void write_artifacts(const pipeline::PipelineResult& result,
                     const std::string& out_dir, bool quiet) {
    const std::filesystem::path root{out_dir};
    for (const auto& [name, art] : result.artifacts) {
        const std::filesystem::path path = root / name;
        std::filesystem::create_directories(path.parent_path());
        mcps::cli::write_file("--out-dir", path.string(),
                              [&](std::ostream& out) { out << art.payload; });
    }
    mcps::cli::write_file(
        "--out-dir", (root / "MANIFEST").string(),
        [&](std::ostream& out) { out << result.manifest(); });
    if (!quiet) {
        std::cout << "artifacts: " << out_dir << " ("
                  << result.artifacts.size() << " files + MANIFEST)\n";
    }
}

void write_bench_json(const pipeline::PipelineResult& result, unsigned jobs,
                      const std::string& path, bool quiet) {
    mcps::cli::write_file("--json", path, [&](std::ostream& out) {
        bool first = true;
        auto metric = [&](const std::string& name, const char* unit,
                          double value) {
            out << (first ? "\n" : ",\n") << "    {\"name\": \"" << name
                << "\", \"unit\": \"" << unit << "\", \"value\": " << value
                << "}";
            first = false;
        };

        out << "{\n  \"bench\": \"pipeline\",\n  \"seed\": 0,\n"
               "  \"metrics\": [";
        metric("passes", "count", static_cast<double>(result.passes.size()));
        metric("jobs", "count", static_cast<double>(jobs));
        metric("cache_hits", "count", static_cast<double>(result.cache_hits));
        metric("cache_misses", "count",
               static_cast<double>(result.cache_misses));
        double total_us = 0.0;
        for (const auto& p : result.passes) total_us += p.wall_us;
        metric("wall_total", "us", total_us);
        for (const auto& p : result.passes) {
            metric("pass/" + p.name + "/wall", "us", p.wall_us);
            metric("pass/" + p.name + "/cached", "bool",
                   p.from_cache ? 1.0 : 0.0);
        }
        out << "\n  ]\n}\n";
    });
    if (!quiet) std::cout << "bench json: " << path << "\n";
}

void print_summary(const pipeline::PipelineResult& result, unsigned jobs) {
    std::size_t cached = 0;
    for (const auto& p : result.passes) cached += p.from_cache ? 1 : 0;
    std::cout << "pipeline: " << result.passes.size() << " passes ("
              << (result.passes.size() - cached) << " ran, " << cached
              << " cached), " << result.cache_hits << " hits, "
              << result.cache_misses << " misses, jobs " << jobs << "\n";
    for (const auto& p : result.passes) {
        std::cout << "  " << p.name << "  "
                  << (p.from_cache ? "cached" : "ran") << "  " << p.wall_us
                  << " us\n";
    }
    std::cout << "manifest digest: " << mcps::sim::hex64(result.digest())
              << "\n";
}

/// The determinism gate: serial-cold, parallel-cold and serial-warm runs
/// of the same graph must produce byte-identical artifact manifests, and
/// the warm run must replay every cacheable pass.
int cmd_verify(const pipeline::PipelineGraph& g, unsigned jobs, bool quiet) {
    pipeline::ArtifactCache cache;

    pipeline::PipelineOptions serial_cold;
    serial_cold.jobs = 1;
    serial_cold.cache = &cache;
    const auto a = g.run(serial_cold);

    pipeline::ArtifactCache parallel_cache;
    pipeline::PipelineOptions parallel_cold;
    parallel_cold.jobs = jobs > 1 ? jobs : 4;
    parallel_cold.cache = &parallel_cache;
    const auto b = g.run(parallel_cold);

    pipeline::PipelineOptions warm;
    warm.jobs = 1;
    warm.cache = &cache;
    const auto c = g.run(warm);

    if (!quiet) {
        std::cout << "serial-cold:   " << mcps::sim::hex64(a.digest()) << "\n"
                  << "parallel-cold: " << mcps::sim::hex64(b.digest())
                  << " (jobs " << parallel_cold.jobs << ")\n"
                  << "serial-warm:   " << mcps::sim::hex64(c.digest()) << " ("
                  << c.cache_hits << " hits)\n";
    }
    if (a.manifest() != b.manifest() || a.manifest() != c.manifest()) {
        std::cout << "FAIL: artifact manifests diverge across "
                     "serial/parallel/warm runs\n";
        return 1;
    }
    if (c.cache_misses != 0) {
        std::cout << "FAIL: warm run re-executed " << c.cache_misses
                  << " cacheable outputs\n";
        return 1;
    }
    std::cout << "OK: " << a.passes.size()
              << " passes byte-identical across serial-cold, parallel-cold"
                 " and warm runs\n";
    return 0;
}

}  // namespace

namespace mcps::drivers {

constexpr cli::Mode kModes[] = {{"--list"}, {"--verify"}};

constexpr cli::Option kOptions[] = {
    {"--spec", cli::text("'NAME [seed=N] [minutes=M] [key=value]...'"), "*",
     "add a scenario-run pass (repeatable)"},
    {"--preset", cli::text("NAME"), "*",
     "add a scenario-run pass from the registry default spec (repeatable)"},
    {"--trace", cli::kSwitch, "*",
     "chain a Chrome-trace export pass onto every scenario-run pass"},
    {"--analysis", cli::kSwitch, "*",
     "add the model-level analysis passes (shipped models/assemblies, "
     "hazards, deadlines) and their merge pass"},
    {"--ward",
     cli::text("'seed=N patients=N jobs=N shards=N mix=SPEC intensity=X'"),
     "*",
     "add a ward-campaign pass (repeatable; any subset of keys; one merge "
     "pass covers all campaigns)"},
    {"--jobs", cli::kJobs, "--verify",
     "worker threads for independent passes (default 1 = serial "
     "topological order; at most 256)"},
    {"--cache", cli::text("PATH"), "",
     "artifact-cache snapshot: loaded before the run if present, saved "
     "after"},
    {"--out-dir", cli::text("DIR"), "",
     "write every artifact under DIR (artifact names become relative "
     "paths) plus a MANIFEST file"},
    {"--json", cli::kOutPath, "",
     "write a bench-schema timing report (per-pass wall_us + cache "
     "traffic)"},
    {"--verify", cli::kSwitch, "--verify",
     "run serial-cold, parallel-cold and serial-warm; require "
     "byte-identical artifact manifests (exit 1 on mismatch)"},
    {"--list", cli::kSwitch, "--list",
     "print the topological pass order, run nothing"},
    {"--manifest", cli::kSwitch, "", "print the artifact manifest to stdout"},
    {"--quiet", cli::kSwitch, "--verify", "suppress the pass summary"},
};

const cli::Command kPipelineCli{
    "pipeline", "composable pass pipeline over cached artifacts", kModes,
    kOptions};

int pipeline_main(std::string_view prog,
                  const std::vector<std::string_view>& argv) {
    return cli::tool_main(prog, kPipelineCli, argv, [&](const cli::Parsed& p) {
        const unsigned jobs = p.count("--jobs", 1u);
        const bool quiet = p.has("--quiet");
        const std::string cache_path = p.text("--cache");
        const std::string out_dir = p.text("--out-dir");
        const std::string json_path = p.text("--json");
        const pipeline::PipelineGraph g = build_graph(p);

        if (p.has("--list")) {
            for (const std::string& name : g.topo_order()) {
                std::cout << name << "\n";
            }
            return 0;
        }
        if (p.has("--verify")) return cmd_verify(g, jobs, quiet);

        pipeline::ArtifactCache cache;
        if (!cache_path.empty()) {
            const std::size_t loaded = cache.load(cache_path);
            if (!quiet) {
                std::cout << "cache: " << cache_path << " (" << loaded
                          << " entries loaded)\n";
            }
        }

        mcps::obs::MetricsRegistry metrics;
        pipeline::PipelineOptions opts;
        opts.jobs = jobs;
        opts.cache = &cache;
        opts.metrics = &metrics;
        const pipeline::PipelineResult result = g.run(opts);

        if (!cache_path.empty() && !cache.save(cache_path)) {
            throw CliError{"--cache: cannot write '" + cache_path + "'"};
        }
        if (!out_dir.empty()) {
            write_artifacts(result, out_dir, quiet);
        }
        if (!json_path.empty()) {
            write_bench_json(result, jobs, json_path, quiet);
        }
        if (!quiet) print_summary(result, jobs);
        if (p.has("--manifest")) std::cout << result.manifest();
        return 0;
    });
}

}  // namespace mcps::drivers
