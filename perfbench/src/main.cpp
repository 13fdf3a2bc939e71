// perfbench: the repository benchmark.
//
//   perfbench --workload bedside|forensic|hospital|serve --seed N
//             --seconds S --trace 0|1 [--out-dir D] [--rev R]
//
// Untraced, it prints every end-to-end metric; traced, every per-layer
// metric. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// Exit status is 0 only when every pin and invariant check held.

#include <sys/stat.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "ref_slice.hpp"
#include "workloads.hpp"

namespace perfbench {

void Context::check_pins() {
    for (const std::string& f : perfbench::check_pins()) report.fail(f);
}

void Context::finish_closed_loop(const Samples& s, double limit_ms,
                                 double setup_norm_s, double setup_raw_s) {
    if (!opt.trace) {
        Basis b;
        b.limit_ms = limit_ms;
        b.seconds_norm = median_busy_s(s, true);
        b.seconds_raw = median_busy_s(s, false);
        b.setup_norm_s = setup_norm_s;
        b.setup_raw_s = setup_raw_s;
        report_end_to_end(report, s, b);
        return;
    }
    report.count(s.attempted, s.failed);
    if (s.failed) report.fail("operation check failed: " + s.first_error);
    report.metric("trace.overhead_frac", trace_overhead(s), "fraction");
}

namespace {

const std::vector<std::string> kEndToEnd = {
    "patient_s_per_s", "latency_p50_ms", "latency_tail_ms",
    "goodput_rps",     "setup_s",        "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "sim.events_per_s",
    "net.deliveries_per_s",
    "physio.scalar_steps_per_s",
    "physio.batch_lane_steps_per_s",
    "scenario.run_ms.pca",
    "scenario.run_ms.pca-open",
    "scenario.run_ms.smart-alarm",
    "scenario.run_ms.xray",
    "scenario.run_ms.xray-manual",
    "scenario.spec_parse_us",
    "obs.events_per_run",
    "obs.jsonl_bytes_per_run",
    "obs.export_mb_per_s",
    "obs.read_jsonl_mb_per_s",
    "obs.events_on_overhead",
    "pipeline.cold_ms",
    "pipeline.warm_ms",
    "pipeline.cache_hit_ratio",
    "hospital.steps_per_s",
    "hospital.state_mb",
    "ward.parallel_eff",
    "serve.hit_us",
    "serve.miss_ms",
    "serve.cache_hit_ratio",
    "serve.queue_ms",
    "serve.run_ms",
    "serve.generator_late_ms",
    "host.factor",
    "trace.overhead_frac"};

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "bedside|forensic|hospital|serve --seed N --seconds S "
                 "--trace 0|1 [--out-dir D] [--rev R]\n",
                 why);
    return 2;
}

void write_spans(const Context& ctx) {
    mkdir(ctx.opt.out_dir.c_str(), 0755);
    const std::string path = ctx.opt.out_dir + "/" + ctx.opt.workload +
                             "-seed" + std::to_string(ctx.opt.seed) +
                             ".trace.json";
    std::ofstream out{path};
    ctx.spans.write_chrome(out);
    std::printf("# spans %zu written to %s\n", ctx.spans.spans().size(),
                path.c_str());
    std::printf("# %-24s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto& [name, t] : ctx.spans.totals()) {
        std::printf("# %-24s %8llu %12.3f %12.3f\n", name.c_str(),
                    static_cast<unsigned long long>(t.count), t.total_ms,
                    t.self_ms);
    }
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Context ctx;
    bool have_workload = false, have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        try {
            if (arg == "--workload") {
                ctx.opt.workload = val;
                have_workload = true;
            } else if (arg == "--seed") {
                ctx.opt.seed = std::stoull(val);
                have_seed = true;
            } else if (arg == "--seconds") {
                ctx.opt.seconds = std::stod(val);
                have_seconds = ctx.opt.seconds > 0.0;
            } else if (arg == "--trace") {
                if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
                ctx.opt.trace = val == "1";
            } else if (arg == "--out-dir") {
                ctx.opt.out_dir = val;
            } else if (arg == "--rev") {
                ctx.opt.rev = val;
            } else {
                return usage(("unknown option " + arg).c_str());
            }
        } catch (const std::exception&) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds) {
        return usage("--workload, --seed and --seconds are required");
    }

    void (*run)(Context&) = nullptr;
    if (ctx.opt.workload == "bedside") run = run_bedside;
    if (ctx.opt.workload == "forensic") run = run_forensic;
    if (ctx.opt.workload == "hospital") run = run_hospital;
    if (ctx.opt.workload == "serve") run = run_serve;
    if (!run) return usage("unknown workload");

    Report& rep = ctx.report;
    rep.note("workload", ctx.opt.workload);
    rep.note("seed", std::to_string(ctx.opt.seed));
    rep.note("mode", ctx.opt.trace ? "traced (per-layer)" : "untraced (end-to-end)");
    rep.note("host.nproc", std::to_string(std::thread::hardware_concurrency()));
    rep.note("host.compiler", std::string{"g++ "} + __VERSION__);
    rep.note("host.build_type", PERFBENCH_BUILD_TYPE);
    rep.note("host.rev", ctx.opt.rev);
    char slice[96];
    std::snprintf(slice, sizeof slice, "%llu events, nominal %g ms",
                  static_cast<unsigned long long>(kSliceEvents), kSliceNominalMs);
    rep.note("host.slice", slice);

    try {
        ctx.gauge.sample();  // warm the slice's code and allocator
        run(ctx);
        if (ctx.opt.trace) run_layers(ctx);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    char factor[64];
    std::snprintf(factor, sizeof factor, "%.4f (median of %zu slices)",
                  ctx.gauge.median_factor(), ctx.gauge.samples());
    rep.note("host.factor", factor);
    if (ctx.opt.trace) write_spans(ctx);
    rep.print(ctx.opt.trace ? kPerLayer : kEndToEnd);
    return rep.correct() && rep.failed() == 0 ? 0 : 1;
}
