#include "checks.hpp"

#include "scenario/registry.hpp"
#include "support/pinned_presets.hpp"

namespace perfbench {

namespace ms = mcps::scenario;

std::vector<std::string> check_pins() {
    std::vector<std::string> failures;
    for (const mcps::testsupport::Pin& pin : mcps::testsupport::kPins) {
        const ms::RunArtifacts a =
            ms::registry().run(mcps::testsupport::pinned_spec(pin.preset));
        if (a.fingerprint != pin.fingerprint ||
            mcps::testsupport::outcome_digest(a) != pin.digest) {
            failures.push_back(std::string{"pin mismatch: "} + pin.preset +
                               " fingerprint " + a.fingerprint_hex());
        }
    }
    return failures;
}

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream,
                          std::uint64_t index) {
    // splitmix64 over the three inputs, folded into [1, 2^31).
    std::uint64_t z = workload_seed * 0x9e3779b97f4a7c15ULL +
                      stream * 0xbf58476d1ce4e5b9ULL + index + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return 1 + z % 0x7ffffffeULL;
}

ms::ScenarioSpec preset_spec(const std::string& preset, std::uint64_t seed,
                             std::uint64_t minutes) {
    ms::ScenarioSpec spec = ms::registry().default_spec(preset);
    spec.seed = seed;
    if (minutes) spec.minutes = minutes;
    return spec;
}

double patient_seconds(const ms::ScenarioSpec& spec) {
    double patients = 1.0;
    if (ms::registry().info(spec.name).family == ms::ScenarioFamily::kHospital) {
        patients = static_cast<double>(ms::make_hospital_config(spec).patients);
    }
    return patients * 60.0 * static_cast<double>(spec.minutes);
}

}  // namespace perfbench
