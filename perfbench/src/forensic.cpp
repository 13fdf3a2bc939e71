// forensic: record the incident timeline and export it. One op runs a
// cold PipelineGraph holding a pca and an xray scenario pass (events on)
// plus their Chrome trace-export passes, then reads both JSONL logs back
// with read_jsonl. Checks per op: the events-on run fingerprint equals
// the events-off one, and the read-back log fingerprints equal the log
// a direct events-on run recorded.

#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "obs/exporters.hpp"
#include "pipeline/std_passes.hpp"
#include "scenario/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ms = mcps::scenario;
namespace mp = mcps::pipeline;

constexpr const char* kIds[] = {"pca", "xray"};
constexpr std::uint64_t kMinutes = 15;
constexpr std::uint64_t kPool = 3;
constexpr double kLimitMs = 500.0;

struct Reference {
    ms::ScenarioSpec spec[2];
    std::string fingerprint[2];  ///< events-off run, as the pass prints it
    std::uint64_t log_fp[2];     ///< direct events-on log
};

}  // namespace

mp::PipelineGraph forensic_graph(const ms::ScenarioSpec& pca,
                                 const ms::ScenarioSpec& xray) {
    mp::PipelineGraph g;
    mp::add_scenario_pass(g, kIds[0], pca);
    mp::add_trace_export_pass(g, kIds[0]);
    mp::add_scenario_pass(g, kIds[1], xray);
    mp::add_trace_export_pass(g, kIds[1]);
    return g;
}

ms::ScenarioSpec forensic_spec(std::uint64_t seed, int which,
                               std::uint64_t r) {
    return preset_spec(kIds[which],
                       derive_seed(seed, 10 + static_cast<std::uint64_t>(which), r),
                       kMinutes);
}

void run_forensic(Context& ctx) {
    std::vector<Reference> refs(kPool);
    for (std::uint64_t r = 0; r < kPool; ++r) {
        for (int w = 0; w < 2; ++w) {
            Reference& ref = refs[r];
            ref.spec[w] = forensic_spec(ctx.opt.seed, w, r);
            mcps::obs::EventLog log;
            ms::RunOptions on;
            on.events = &log;
            const ms::RunArtifacts with = ms::registry().run(ref.spec[w], on);
            const ms::RunArtifacts without = ms::registry().run(ref.spec[w]);
            if (with.fingerprint != without.fingerprint) {
                ctx.report.fail("events-on fingerprint differs from events-off: " +
                                ref.spec[w].to_text());
            }
            ref.fingerprint[w] = without.fingerprint_hex() + "\n";
            ref.log_fp[w] = log.fingerprint();
        }
    }

    const auto op = [&](std::uint64_t i, SpanRecorder* spans) {
        const Reference& ref = refs[i % kPool];
        OpResult res;
        SpanScope whole{spans, "forensic.op", i};
        mp::PipelineResult out;
        {
            SpanScope span{spans, "pipeline.run", i};
            out = forensic_graph(ref.spec[0], ref.spec[1]).run();
        }
        for (int w = 0; w < 2; ++w) {
            const std::string run = std::string{"run/"} + kIds[w] + "/";
            mcps::obs::EventLog back;
            {
                SpanScope span{spans, "obs.read_jsonl", i};
                std::istringstream in{out.at(run + "events").payload};
                back = mcps::obs::read_jsonl(in);
            }
            res.patient_s += patient_seconds(ref.spec[w]);
            if (out.at(run + "fingerprint").payload != ref.fingerprint[w]) {
                res.ok = false;
                res.error = "events-on pipeline fingerprint differs: " +
                            ref.spec[w].to_text();
            } else if (back.fingerprint() != ref.log_fp[w]) {
                res.ok = false;
                res.error = "read_jsonl(write_jsonl(log)) differs: " +
                            ref.spec[w].to_text();
            } else if (out.at(std::string{"trace/"} + kIds[w] + "/chrome")
                           .payload.empty()) {
                res.ok = false;
                res.error = "empty chrome trace";
            }
        }
        return res;
    };

    double setup_raw = 0.0;
    const double setup_norm = time_setup(ctx.gauge, ctx.setup_reps(), [&] {
        ctx.check_pins();
        const OpResult warm = op(0, nullptr);
        if (!warm.ok) ctx.report.fail("warm-up: " + warm.error);
    }, setup_raw);

    const Samples s = run_closed_loop(
        ctx.gauge, ctx.opt.seconds, op,
        [](std::uint64_t) { return 0; }, ctx.trace_spans());
    ctx.finish_closed_loop(s, kLimitMs, setup_norm, setup_raw);
}

}  // namespace perfbench
