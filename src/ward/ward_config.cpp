#include "ward_config.hpp"

#include <cstdio>

#include "testkit/scenario_gen.hpp"

namespace mcps::ward {

ScenarioMix ScenarioMix::normalized() const {
    if (pca < 0 || xray < 0 || alarm_ward < 0 || hospital < 0) {
        throw WardConfigError{"ScenarioMix: negative weight"};
    }
    const double total = pca + xray + alarm_ward + hospital;
    if (!(total > 0)) {
        throw WardConfigError{"ScenarioMix: all weights are zero"};
    }
    return {pca / total, xray / total, alarm_ward / total, hospital / total};
}

ScenarioMix parse_mix(std::string_view spec) {
    ScenarioMix mix{0, 0, 0, 0};
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = std::min(spec.find(',', pos), spec.size());
        const std::string_view item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty()) {
            if (comma == spec.size()) break;
            throw WardConfigError{"parse_mix: empty item in '" +
                                  std::string{spec} + "'"};
        }
        const std::size_t eq = item.find('=');
        if (eq == std::string_view::npos) {
            throw WardConfigError{"parse_mix: expected key=weight, got '" +
                                  std::string{item} + "'"};
        }
        const std::string_view key = item.substr(0, eq);
        const std::string value{item.substr(eq + 1)};
        double weight = 0;
        try {
            std::size_t used = 0;
            weight = std::stod(value, &used);
            if (used != value.size()) throw std::invalid_argument{""};
        } catch (const std::exception&) {
            throw WardConfigError{"parse_mix: bad weight '" + value + "'"};
        }
        if (key == "pca") {
            mix.pca = weight;
        } else if (key == "xray") {
            mix.xray = weight;
        } else if (key == "ward" || key == "alarm_ward") {
            mix.alarm_ward = weight;
        } else if (key == "hospital") {
            mix.hospital = weight;
        } else {
            throw WardConfigError{"parse_mix: unknown workload '" +
                                  std::string{key} +
                                  "' (expected pca, xray, ward, or "
                                  "hospital)"};
        }
        if (comma == spec.size()) break;
    }
    return mix.normalized();  // validates too
}

std::string to_string(const ScenarioMix& mix) {
    const ScenarioMix n = mix.normalized();
    char buf[128];
    // The hospital weight renders only when present, so the classic
    // three-workload mix string (pinned by tests and report text) is
    // unchanged.
    if (n.hospital > 0) {
        std::snprintf(buf, sizeof buf,
                      "pca=%.3f,xray=%.3f,ward=%.3f,hospital=%.3f", n.pca,
                      n.xray, n.alarm_ward, n.hospital);
    } else {
        std::snprintf(buf, sizeof buf, "pca=%.3f,xray=%.3f,ward=%.3f", n.pca,
                      n.xray, n.alarm_ward);
    }
    return buf;
}

void WardConfig::validate() const {
    if (patients == 0) throw WardConfigError{"WardConfig: patients must be > 0"};
    if (shards == 0) throw WardConfigError{"WardConfig: shards must be > 0"};
    if (!testkit::fault_intensity_in_domain(fault_intensity)) {
        char msg[96];
        std::snprintf(msg, sizeof msg,
                      "WardConfig: fault_intensity %g is outside [0, %g]",
                      fault_intensity, testkit::kMaxFaultIntensity);
        throw WardConfigError{msg};
    }
    (void)mix.normalized();
}

}  // namespace mcps::ward
