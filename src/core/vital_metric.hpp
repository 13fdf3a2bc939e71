/// \file vital_metric.hpp
/// \brief The closed set of vital metrics the bedside apps fuse, and the
/// per-metric latest-reading table they keep.
///
/// PcaInterlock and SmartAlarm subscribe to "vitals/<bed>/*" and read
/// back exactly four metrics every check tick. Naming those four once
/// lets each app map a message's metric string to a slot when it
/// arrives, and read the slots by index afterwards, instead of
/// searching a string-keyed map on every read.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "sim/time.hpp"

namespace mcps::core {

enum class VitalMetric : std::uint8_t { kSpo2, kRespRate, kEtco2, kPulseRate };

inline constexpr std::size_t kVitalMetricCount = 4;

/// Every metric, in slot order.
inline constexpr std::array<VitalMetric, kVitalMetricCount> kVitalMetrics{
    VitalMetric::kSpo2, VitalMetric::kRespRate, VitalMetric::kEtco2,
    VitalMetric::kPulseRate};

/// The metric's name as it appears in VitalSignPayload::metric.
[[nodiscard]] constexpr std::string_view to_string(VitalMetric m) noexcept {
    switch (m) {
        case VitalMetric::kSpo2: return "spo2";
        case VitalMetric::kRespRate: return "resp_rate";
        case VitalMetric::kEtco2: return "etco2";
        case VitalMetric::kPulseRate: return "pulse_rate";
    }
    return "unknown";
}

/// The slot for a payload's metric name; nullopt for a metric outside
/// the set (no app reads those).
[[nodiscard]] constexpr std::optional<VitalMetric> vital_metric_from(
    std::string_view name) noexcept {
    for (const VitalMetric m : kVitalMetrics) {
        if (to_string(m) == name) return m;
    }
    return std::nullopt;
}

/// The latest reading of one metric.
struct VitalReading {
    double value = 0.0;
    bool valid = true;
    mcps::sim::SimTime updated_at = mcps::sim::SimTime::never();

    /// False until the first reading arrives.
    [[nodiscard]] bool seen() const noexcept { return !updated_at.is_never(); }
    /// Seen, and no older than \p staleness_limit at \p now.
    [[nodiscard]] bool fresh(mcps::sim::SimTime now,
                             mcps::sim::SimDuration staleness_limit) const {
        return seen() && now - updated_at <= staleness_limit;
    }
};

/// Latest reading per metric, indexed by VitalMetric.
class VitalTable {
public:
    [[nodiscard]] const VitalReading& operator[](VitalMetric m) const noexcept {
        return slots_[static_cast<std::size_t>(m)];
    }
    void set(VitalMetric m, const VitalReading& r) noexcept {
        slots_[static_cast<std::size_t>(m)] = r;
    }

private:
    std::array<VitalReading, kVitalMetricCount> slots_{};
};

}  // namespace mcps::core
