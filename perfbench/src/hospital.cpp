// hospital: back-to-back HospitalEngine runs of the "hospital" preset
// (2000 patients, 20 wards) at jobs=2, over a short simulated span so a
// measurement holds many runs. Each op's fingerprint must equal the
// jobs=1 run of the same config.

#include <vector>

#include "checks.hpp"
#include "hospital/hospital_engine.hpp"
#include "scenario/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kPool = 6;
constexpr double kLimitMs = 400.0;

}  // namespace

mcps::hospital::HospitalConfig hospital_config(std::uint64_t seed,
                                               std::uint64_t r,
                                               unsigned jobs) {
    mcps::hospital::HospitalConfig cfg = mcps::scenario::make_hospital_config(
        preset_spec("hospital", derive_seed(seed, 20, r), kHospitalMinutes));
    cfg.jobs = jobs;
    return cfg;
}

void run_hospital(Context& ctx) {
    using mcps::hospital::HospitalEngine;
    std::vector<mcps::hospital::HospitalConfig> cfgs;
    std::vector<std::uint64_t> ref_fp;
    for (std::uint64_t r = 0; r < kPool; ++r) {
        cfgs.push_back(hospital_config(ctx.opt.seed, r, 2));
        ref_fp.push_back(
            HospitalEngine{hospital_config(ctx.opt.seed, r, 1)}.run().fingerprint);
    }

    const auto op = [&](std::uint64_t i, SpanRecorder* spans) {
        const std::size_t slot = i % kPool;
        OpResult res;
        SpanScope span{spans, "hospital.run", i};
        const HospitalEngine engine{cfgs[slot]};
        const mcps::hospital::HospitalReport rep = engine.run();
        res.patient_s = static_cast<double>(rep.patients) * rep.duration_s;
        if (rep.fingerprint != ref_fp[slot]) {
            res.ok = false;
            res.error = "hospital fingerprint differs between jobs=1 and jobs=2";
        }
        return res;
    };

    double setup_raw = 0.0;
    const double setup_norm = time_setup(ctx.gauge, ctx.setup_reps(), [&] {
        ctx.check_pins();
        const OpResult first = op(0, nullptr);
        if (!first.ok) ctx.report.fail("first cold run: " + first.error);
    }, setup_raw);

    const Samples s = run_closed_loop(
        ctx.gauge, ctx.opt.seconds, op,
        [](std::uint64_t) { return 0; }, ctx.trace_spans());
    ctx.finish_closed_loop(s, kLimitMs, setup_norm, setup_raw);
}

}  // namespace perfbench
