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
using mcps::cli::parse_u64;

namespace {

void usage(std::ostream& os, std::string_view prog) {
    os << "usage: " << prog
       << " [options]\n"
          "  --spec 'NAME [seed=N] [minutes=M] [key=value]...'\n"
          "                     add a scenario-run pass (repeatable)\n"
          "  --preset NAME      add a scenario-run pass from the\n"
          "                     registry default spec (repeatable)\n"
          "  --trace            chain a Chrome-trace export pass onto\n"
          "                     every scenario-run pass\n"
          "  --analysis         add the model-level analysis passes\n"
          "                     (shipped models/assemblies, hazards,\n"
          "                     deadlines) and their merge pass\n"
          "  --ward 'seed=N patients=N jobs=N shards=N mix=SPEC\n"
          "          intensity=X'\n"
          "                     add a ward-campaign pass (repeatable;\n"
          "                     any subset of keys; one merge pass\n"
          "                     covers all campaigns)\n"
          "  --jobs N           worker threads for independent passes\n"
          "                     (default 1 = serial topological order;\n"
          "                     at most 256)\n"
          "  --cache PATH       artifact-cache snapshot: loaded before\n"
          "                     the run if present, saved after\n"
          "  --out-dir DIR      write every artifact under DIR (artifact\n"
          "                     names become relative paths) plus a\n"
          "                     MANIFEST file\n"
          "  --json PATH        write a bench-schema timing report\n"
          "                     (per-pass wall_us + cache traffic)\n"
          "  --verify           run serial-cold, parallel-cold and\n"
          "                     serial-warm; require byte-identical\n"
          "                     artifact manifests (exit 1 on mismatch)\n"
          "  --list             print the topological pass order, run\n"
          "                     nothing\n"
          "  --manifest         print the artifact manifest to stdout\n"
          "  --quiet            suppress the pass summary\n"
          "  --help             this text\n";
}

struct PipelineCli {
    std::vector<std::string> specs;
    std::vector<std::string> presets;
    std::vector<std::string> wards;
    bool trace = false;
    bool analysis = false;
    unsigned jobs = 1;
    std::string cache_path;
    std::string out_dir;
    std::string json_path;
    bool verify = false;
    bool list = false;
    bool manifest = false;
    bool quiet = false;
};

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

pipeline::PipelineGraph build_graph(const PipelineCli& cli) {
    pipeline::PipelineGraph g;
    std::vector<std::string> scenario_ids;

    for (const std::string& text : cli.specs) {
        const scenario::ScenarioSpec spec = scenario::parse_spec(text);
        pipeline::add_scenario_pass(
            g, unique_id(scenario_ids, spec.name), spec);
    }
    for (const std::string& name : cli.presets) {
        const scenario::ScenarioSpec spec =
            scenario::registry().default_spec(name);
        pipeline::add_scenario_pass(
            g, unique_id(scenario_ids, spec.name), spec);
    }
    if (cli.trace) {
        for (const std::string& id : scenario_ids) {
            pipeline::add_trace_export_pass(g, id);
        }
    }
    if (cli.analysis) {
        // The scan stages are deliberately absent here: they read the
        // working tree, so their output depends on the invocation
        // directory. The analyze driver stays the scan surface.
        pipeline::add_analysis_passes(g, pipeline::AnalysisPassOptions{});
    }
    std::vector<std::string> ward_ids;
    for (std::size_t i = 0; i < cli.wards.size(); ++i) {
        // Two-step concatenation sidesteps GCC 12's -Wrestrict false
        // positive on `const char* + std::string&&` (GCC bug 105329).
        std::string id{"w"};
        id += std::to_string(i + 1);
        ward_ids.push_back(id);
        pipeline::add_ward_pass(g, id,
                                pipeline::parse_ward_config(cli.wards[i]));
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

int pipeline_main(std::string_view prog,
                  const std::vector<std::string_view>& argv) {
    PipelineCli cli;

    return mcps::cli::tool_main(
        prog, [&](std::ostream& os) { usage(os, prog); },
        [&]() -> int {
        mcps::cli::Args args{argv};
        while (!args.done()) {
            const auto arg = args.next();
            const auto value = [&] { return args.value(arg); };
            if (arg == "--spec") {
                cli.specs.emplace_back(value());
            } else if (arg == "--preset") {
                cli.presets.emplace_back(value());
            } else if (arg == "--ward") {
                cli.wards.emplace_back(value());
            } else if (arg == "--trace") {
                cli.trace = true;
            } else if (arg == "--analysis") {
                cli.analysis = true;
            } else if (arg == "--jobs") {
                cli.jobs = mcps::cli::parse_jobs(arg, value());
            } else if (arg == "--cache") {
                cli.cache_path = std::string{value()};
            } else if (arg == "--out-dir") {
                cli.out_dir = std::string{value()};
            } else if (arg == "--json") {
                cli.json_path = std::string{value()};
            } else if (arg == "--verify") {
                cli.verify = true;
            } else if (arg == "--list") {
                cli.list = true;
            } else if (arg == "--manifest") {
                cli.manifest = true;
            } else if (arg == "--quiet") {
                cli.quiet = true;
            } else if (arg == "--help" || arg == "-h") {
                usage(std::cout, prog);
                return 0;
            } else {
                throw CliError{"unknown option '" + std::string{arg} + "'"};
            }
        }

        const pipeline::PipelineGraph g = build_graph(cli);

        if (cli.list) {
            for (const std::string& name : g.topo_order()) {
                std::cout << name << "\n";
            }
            return 0;
        }
        if (cli.verify) return cmd_verify(g, cli.jobs, cli.quiet);

        pipeline::ArtifactCache cache;
        if (!cli.cache_path.empty()) {
            const std::size_t loaded = cache.load(cli.cache_path);
            if (!cli.quiet) {
                std::cout << "cache: " << cli.cache_path << " (" << loaded
                          << " entries loaded)\n";
            }
        }

        mcps::obs::MetricsRegistry metrics;
        pipeline::PipelineOptions opts;
        opts.jobs = cli.jobs;
        opts.cache = &cache;
        opts.metrics = &metrics;
        const pipeline::PipelineResult result = g.run(opts);

        if (!cli.cache_path.empty() && !cache.save(cli.cache_path)) {
            throw CliError{"--cache: cannot write '" + cli.cache_path + "'"};
        }
        if (!cli.out_dir.empty()) {
            write_artifacts(result, cli.out_dir, cli.quiet);
        }
        if (!cli.json_path.empty()) {
            write_bench_json(result, cli.jobs, cli.json_path, cli.quiet);
        }
        if (!cli.quiet) print_summary(result, cli.jobs);
        if (cli.manifest) std::cout << result.manifest();
        return 0;
        });
}

}  // namespace mcps::drivers
