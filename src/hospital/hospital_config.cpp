#include "hospital_config.hpp"

#include <cmath>

namespace mcps::hospital {

std::string_view to_string(InterlockPlacement p) noexcept {
    switch (p) {
        case InterlockPlacement::kOff: return "off";
        case InterlockPlacement::kLocal: return "local";
        case InterlockPlacement::kCentral: return "central";
    }
    return "?";
}

std::string_view to_string(CohortMix m) noexcept {
    switch (m) {
        case CohortMix::kTypical: return "typical";
        case CohortMix::kMixed: return "mixed";
        case CohortMix::kHighRisk: return "high-risk";
    }
    return "?";
}

void HospitalConfig::validate() const {
    auto fail = [](const std::string& what) {
        throw HospitalConfigError{"HospitalConfig: " + what};
    };
    if (patients == 0) fail("patients == 0");
    if (wards == 0) fail("wards == 0");
    if (wards > patients) fail("more wards than patients");
    if (nurses_per_ward == 0) fail("nurses_per_ward == 0");
    if (bus_capacity_per_tick == 0) fail("bus_capacity_per_tick == 0");
    if (bus_queue_limit == 0) fail("bus_queue_limit == 0");
    if (!(tick_s > 0.0) || tick_s > 10.0) fail("tick_s outside (0, 10]");
    if (duration <= mcps::sim::SimDuration::zero()) fail("duration <= 0");
    if (spo2_alarm_threshold < 50.0 || spo2_alarm_threshold >= 100.0) {
        fail("spo2_alarm_threshold outside [50, 100)");
    }
    if (!(interlock_deadline_s > 0.0)) fail("interlock_deadline_s <= 0");
    if (!(monitor_period_s > 0.0)) fail("monitor_period_s <= 0");
    if (!(nurse_service_s > 0.0)) fail("nurse_service_s <= 0");
    if (demand_per_hour < 0.0) fail("demand_per_hour < 0");
    if (bolus_mg < 0.0) fail("bolus_mg < 0");
    if (infusion_mg_per_hour < 0.0) fail("infusion_mg_per_hour < 0");
    if (lockout_s < 0.0) fail("lockout_s < 0");
    if (storm_fraction < 0.0 || storm_fraction > 1.0) {
        fail("storm_fraction outside [0, 1]");
    }
    if (storm_bolus_mg < 0.0) fail("storm_bolus_mg < 0");
    if (storm_at_s < 0.0) fail("storm_at_s < 0");
    if (storm_fraction > 0.0 && storm_at_s >= duration.to_seconds()) {
        fail("storm_at_s at or after the end of the run");
    }
    if (jobs == 0) fail("jobs == 0");
}

std::pair<std::size_t, std::size_t> HospitalConfig::ward_range(
    std::size_t w) const noexcept {
    const std::size_t base = patients / wards;
    const std::size_t extra = patients % wards;
    const std::size_t first = w * base + std::min(w, extra);
    const std::size_t size = base + (w < extra ? 1 : 0);
    return {first, first + size};
}

std::int64_t HospitalConfig::ticks() const noexcept {
    const auto t = static_cast<std::int64_t>(
        std::llround(duration.to_seconds() / tick_s));
    return t > 0 ? t : 1;
}

}  // namespace mcps::hospital
