/// \file quickstart.cpp
/// \brief Minimal end-to-end use of the mcps framework: one spec line
/// names a registered closed-loop PCA scenario, the registry runs it,
/// and the artifacts carry the safety summary.
///
/// Build & run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/quickstart
///
/// The same spec line reproduces the same run from the `mcps run` CLI:
///   ./build/tools/mcps run run --spec 'pca seed=7 minutes=120 ...'

#include <cstdio>

#include "scenario/scenario.hpp"

int main() {
    using namespace mcps;

    // 1. Describe the run: the registered closed-loop "pca" scenario
    //    with an opioid-sensitive patient under PCA-by-proxy pressing
    //    (worst case) and the default dual-sensor interlock.
    const scenario::ScenarioSpec spec = scenario::parse_spec(
        "pca seed=7 minutes=120 patient=opioid-sensitive");

    // 2. Run it through the registry.
    const scenario::RunArtifacts r = scenario::registry().run(spec);

    // 3. Report.
    std::printf("== quickstart: %s ==\n", spec.to_text().c_str());
    std::printf("simulated             : %.1f h\n",
                static_cast<double>(spec.minutes) / 60.0);
    std::printf("drug delivered        : %.2f mg\n", r.at("total_drug_mg"));
    std::printf("boluses (req/deliv)   : %.0f / %.0f\n",
                r.at("boluses_requested"), r.at("boluses_delivered"));
    std::printf("min SpO2 (truth)      : %.1f %%\n", r.at("min_spo2"));
    std::printf("time SpO2 < 90%%       : %.1f s\n",
                r.at("time_spo2_below_90_s"));
    std::printf("severe hypoxemia      : %s\n",
                r.at("severe_hypoxemia") > 0 ? "YES" : "no");
    std::printf("interlock stops       : %.0f\n", r.at("interlock_stops"));
    if (r.at("detection_latency_s") >= 0) {
        std::printf("detection latency     : %.1f s\n",
                    r.at("detection_latency_s"));
    }
    std::printf("mean pain score       : %.1f / 10\n", r.at("mean_pain"));
    std::printf("run fingerprint       : %s\n", r.fingerprint_hex().c_str());
    return 0;
}
