// bedside: back-to-back registry runs of the five single-patient presets
// at their default durations, events off, seeds advancing over a pool.
// Each op's fingerprint must equal the first run of the same spec.

#include <string>
#include <vector>

#include "checks.hpp"
#include "scenario/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr const char* kPresets[] = {"pca", "pca-open", "smart-alarm", "xray",
                                    "xray-manual"};
constexpr std::uint64_t kPresetCount = 5;
/// Seeds per preset. Many distinct inputs per run keep the run's medians
/// from hanging on a few seeds; each spec still repeats about twice in a
/// 10 s run, which is what the determinism check compares.
constexpr std::uint64_t kPool = 15;
/// Goodput limit: above the slowest preset's quiet-host time.
constexpr double kLimitMs = 400.0;

}  // namespace

void run_bedside(Context& ctx) {
    namespace ms = mcps::scenario;
    std::vector<ms::ScenarioSpec> specs;
    for (std::uint64_t r = 0; r < kPool; ++r) {
        for (std::uint64_t k = 0; k < kPresetCount; ++k) {
            specs.push_back(
                preset_spec(kPresets[k], derive_seed(ctx.opt.seed, k, r)));
        }
    }
    std::vector<std::uint64_t> first_fp(specs.size(), 0);
    std::vector<char> seen(specs.size(), 0);
    const auto op = [&](std::uint64_t i, SpanRecorder* spans) {
        const std::size_t slot = i % specs.size();
        OpResult r;
        std::uint64_t fp = 0;
        {
            SpanScope span{spans, "scenario.run", i};
            fp = ms::registry().run(specs[slot]).fingerprint;
        }
        r.patient_s = patient_seconds(specs[slot]);
        if (!seen[slot]) {
            seen[slot] = 1;
            first_fp[slot] = fp;
        } else if (fp != first_fp[slot]) {
            r.ok = false;
            r.error = "nondeterministic run: " + specs[slot].to_text();
        }
        return r;
    };

    double setup_raw = 0.0;
    const double setup_norm =
        time_setup(ctx.gauge, ctx.setup_reps(), [&] {
            ctx.check_pins();
            for (const char* preset : kPresets) {
                (void)ms::registry().run(ms::registry().default_spec(preset));
            }
        }, setup_raw);

    const Samples s = run_closed_loop(
        ctx.gauge, ctx.opt.seconds, op,
        [](std::uint64_t i) { return static_cast<int>(i % kPresetCount); },
        ctx.trace_spans());
    ctx.finish_closed_loop(s, kLimitMs, setup_norm, setup_raw);
}

}  // namespace perfbench
