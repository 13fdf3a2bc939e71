/// \file format.hpp
/// \brief Deterministic number formatting for observability exporters.
///
/// Golden traces are byte-diffed, so every number must render the same
/// way on every run. Integral values print as integers (no exponent, no
/// trailing zeros); everything else prints as %.17g, which round-trips
/// IEEE doubles exactly. std::to_chars is specified as printf in the C
/// locale, so these are printf's bytes without a format string or a
/// locale. Non-finite values render as JSON null — they are never valid
/// metric/event payloads, but an exporter must not emit invalid JSON
/// even for buggy inputs.

#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <string>
#include <string_view>

namespace mcps::obs {

/// Longest text write_number produces ("-2.2250738585072014e-308").
inline constexpr std::size_t kMaxNumberChars = 24;

/// What a non-finite value writes.
inline constexpr std::string_view kJsonNull = "null";

/// Writes \p v's deterministic text at \p p, which must have room for
/// kMaxNumberChars bytes; returns the end of what it wrote.
inline char* write_number(char* p, double v) {
    if (!std::isfinite(v)) {
        return std::copy(kJsonNull.begin(), kJsonNull.end(), p);
    }
    char* const end = p + kMaxNumberChars;
    return (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15
                ? std::to_chars(p, end, static_cast<long long>(v))
                : std::to_chars(p, end, v, std::chars_format::general, 17))
        .ptr;
}

/// Appends \p v's deterministic text to \p out.
inline void append_number(std::string& out, double v) {
    char buf[kMaxNumberChars];
    out.append(buf, write_number(buf, v));
}

[[nodiscard]] inline std::string format_number(double v) {
    std::string out;
    append_number(out, v);
    return out;
}

}  // namespace mcps::obs
