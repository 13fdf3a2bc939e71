/// \file pinned_presets.hpp
/// \brief The pinned per-preset fingerprints/digests, shared by suites.
///
/// Captured at minutes=1 with default specs; covers every registry
/// preset. Both the scenario suite (direct registry runs) and the serve
/// suite (the same runs through the full socket/server/cache path)
/// assert against this single table, so the byte-identity contract is
/// enforced end-to-end: if the server path ever perturbs a run, its
/// fingerprints diverge from the very pins the direct path satisfies.
///
/// Intentional model changes re-pin via the scenario suite's
/// PinnedOutcomes.DISABLED_PrintCurrentPins helper.

#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "scenario/scenario.hpp"

namespace mcps::testsupport {

inline std::uint64_t pin_mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

/// Order-sensitive digest of the outcome map: metric names byte-by-byte
/// plus the exact IEEE-754 bit pattern of each value (so even a 1-ulp
/// drift in any metric changes the digest).
inline std::uint64_t outcome_digest(const scenario::RunArtifacts& a) {
    std::uint64_t h = 0x6d637073ULL;  // 'mcps'
    for (const auto& [name, value] : a.outcome) {
        for (const char c : name) {
            h = pin_mix(h, static_cast<unsigned char>(c));
        }
        std::uint64_t bits;
        static_assert(sizeof bits == sizeof value);
        std::memcpy(&bits, &value, sizeof bits);
        h = pin_mix(h, bits);
    }
    return h;
}

struct Pin {
    const char* preset;
    std::uint64_t fingerprint;
    std::uint64_t digest;
};

inline constexpr Pin kPins[] = {
    {"pca", 0x7ae9b7b65dc2ee76ULL, 0x86d5d17cd90541abULL},
    {"pca-open", 0x7d22d03c3ce6cd48ULL, 0x24d2b8aee55928e8ULL},
    {"smart-alarm", 0x9a26798dfa313e59ULL, 0x7ade0f1c9a8e84b1ULL},
    {"xray", 0x3e75b22c6ecccd12ULL, 0x33debf63349bf1c1ULL},
    {"xray-manual", 0xf3962074d1bfb982ULL, 0x68a7c3d7110ec94dULL},
    {"hospital", 0xd00c39128976a2f1ULL, 0xfd897a696c4e1dbdULL},
    {"hospital-small", 0xac0c13fcc262e70bULL, 0x61072890084905faULL},
};

/// The pinned configuration: the preset's default spec at minutes=1.
inline scenario::ScenarioSpec pinned_spec(const std::string& preset) {
    scenario::ScenarioSpec spec = scenario::registry().default_spec(preset);
    spec.minutes = 1;
    return spec;
}

/// Pin lookup; nullptr when the preset is not pinned.
inline const Pin* find_pin(const std::string& preset) {
    for (const Pin& pin : kPins) {
        if (preset == pin.preset) return &pin;
    }
    return nullptr;
}

}  // namespace mcps::testsupport
