/// \file format.hpp
/// \brief Deterministic number formatting for observability exporters.
///
/// Golden traces are byte-diffed, so every number must render the same
/// way on every run. Integral values print as integers (no exponent, no
/// trailing zeros); everything else prints with %.17g, which
/// round-trips IEEE doubles exactly. Non-finite values render as JSON
/// null — they are never valid metric/event payloads, but an exporter
/// must not emit invalid JSON even for buggy inputs.

#pragma once

#include <cmath>
#include <cstdio>
#include <string>

namespace mcps::obs {

[[nodiscard]] inline std::string format_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof buf, "%.17g", v);
    }
    return buf;
}

}  // namespace mcps::obs
