/// \file hash.hpp
/// \brief The one 64-bit hash family: FNV-1a over bytes, and the
/// FNV-xorshift fold fingerprints are built from, plus the one rendering
/// of a fingerprint or digest. Pinned fingerprints depend on these exact
/// recipes.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mcps::sim {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a over the bytes of \p s, continuing from hash \p h.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::uint64_t h,
                                              std::string_view s) noexcept {
    for (char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= kFnvPrime;
    }
    return h;
}

/// Stable 64-bit FNV-1a hash used to derive per-name substream seeds.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view s) noexcept {
    return fnv1a64(kFnvOffset, s);
}

/// Fingerprint fold: an FNV step over a whole word, then an xorshift.
[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t h,
                                          std::uint64_t v) noexcept {
    h ^= v;
    h *= kFnvPrime;
    return h ^ (h >> 29);
}

/// Folds \p s length first, then byte by byte.
[[nodiscard]] constexpr std::uint64_t mix_string(std::uint64_t h,
                                                 std::string_view s) noexcept {
    h = mix(h, s.size());
    for (char c : s) h = mix(h, static_cast<std::uint8_t>(c));
    return h;
}

/// "0x%016llx" rendering of \p v: every printed fingerprint and digest.
[[nodiscard]] inline std::string hex64(std::uint64_t v) {
    std::string out = "0x0000000000000000";
    for (std::size_t i = out.size(); v != 0; v >>= 4) {
        out[--i] = "0123456789abcdef"[v & 0xF];
    }
    return out;
}

}  // namespace mcps::sim
