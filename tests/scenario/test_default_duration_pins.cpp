/// \file test_default_duration_pins.cpp
/// \brief Pins every single-patient preset at its default duration.
///
/// The smoke pins (tests/support/pinned_presets.hpp) run one simulated
/// minute, so they never reach the hours of a run where drug load
/// builds up, alarms fire and the interlock trips. These pins run each
/// pca- and x-ray-family preset's default spec (pca, pca-open: 240 min;
/// smart-alarm: 480 min; xray, xray-manual: 60 min) and pin the run
/// fingerprint and outcome digest, and pin the two hospital presets at
/// longer spans than the smoke pins (below). The pca run is also pinned on its
/// whole event stream: the FNV-1a hash of the JSONL that
/// `mcps run run --scenario pca --events-out` writes, which covers every
/// bus publish and delivery the run makes.
///
/// Intentional model changes re-pin with
/// `mcps_scenario_tests --gtest_filter='*DefaultDuration*PrintCurrent*'
/// --gtest_also_run_disabled_tests`, and say so in the change.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/event_log.hpp"
#include "obs/exporters.hpp"
#include "scenario/scenario.hpp"
#include "sim/hash.hpp"
#include "tests/support/pinned_presets.hpp"

namespace {

using namespace mcps;
using testsupport::outcome_digest;
using testsupport::Pin;

inline constexpr Pin kDefaultPins[] = {
    {"pca", 0x6b5cc8680cd35bd4ULL, 0x5f040170b176bc22ULL},
    {"pca-open", 0xdd270801eeb4fca9ULL, 0x967d2836e4fd448bULL},
    {"smart-alarm", 0x14c19ac66b2ac6acULL, 0x336e5ebeb6d0f4e4ULL},
    {"xray", 0x9567a661d8d21f25ULL, 0x282f495e7c35bbc3ULL},
    {"xray-manual", 0x9bf9d1af92f0e5a3ULL, 0x33a9198daa82e349ULL},
};

/// The hospital presets past the one-minute smoke pins: `hospital` at
/// minutes=3 (the run length of one perfbench `hospital` op; 2000
/// patients, 20 wards, 180 ticks) and `hospital-small` at its default 30
/// minutes (96 patients, 4 wards, 1800 ticks). Both step the batch
/// physio kernel over ward ranges that do not split into even lane
/// pairs.
struct HospitalPin {
    Pin pin;
    std::uint64_t minutes;
};

inline constexpr HospitalPin kHospitalPins[] = {
    {{"hospital", 0x9097150972985259ULL, 0x929185f80ec36165ULL}, 3},
    {{"hospital-small", 0xb73bb89c1b05b7f4ULL, 0xa587dd82dc02ade2ULL}, 30},
};

/// FNV-1a of `pca`'s default-spec --events-out JSONL (13,756,235 bytes).
inline constexpr std::uint64_t kPcaEventsJsonlFnv = 0x2418abb16569203aULL;

scenario::RunArtifacts run_default(const std::string& preset,
                                   const scenario::RunOptions& opts = {}) {
    return scenario::registry().run(
        scenario::registry().default_spec(preset), opts);
}

scenario::RunArtifacts run_hospital(const HospitalPin& hp) {
    scenario::ScenarioSpec spec =
        scenario::registry().default_spec(hp.pin.preset);
    spec.minutes = hp.minutes;
    return scenario::registry().run(spec);
}

std::uint64_t pca_events_jsonl_fnv() {
    obs::EventLog log;
    scenario::RunOptions opts;
    opts.events = &log;
    (void)run_default("pca", opts);
    std::string jsonl;
    obs::write_jsonl(log, jsonl);
    return sim::fnv1a64(jsonl);
}

TEST(DefaultDurationPins, FingerprintsAndDigestsMatchPinnedValues) {
    for (const auto& pin : kDefaultPins) {
        const auto a = run_default(pin.preset);
        EXPECT_EQ(a.fingerprint, pin.fingerprint)
            << pin.preset << ": default-duration fingerprint drifted";
        EXPECT_EQ(outcome_digest(a), pin.digest)
            << pin.preset << ": default-duration outcome metrics drifted";
    }
}

TEST(DefaultDurationPins, HospitalFingerprintsAndDigestsMatchPinnedValues) {
    for (const auto& hp : kHospitalPins) {
        const auto a = run_hospital(hp);
        EXPECT_EQ(a.fingerprint, hp.pin.fingerprint)
            << hp.pin.preset << " minutes=" << hp.minutes
            << ": fingerprint drifted";
        EXPECT_EQ(outcome_digest(a), hp.pin.digest)
            << hp.pin.preset << " minutes=" << hp.minutes
            << ": outcome metrics drifted";
    }
}

TEST(DefaultDurationPins, PcaEventStreamJsonlMatchesPinnedHash) {
    EXPECT_EQ(pca_events_jsonl_fnv(), kPcaEventsJsonlFnv)
        << "pca: default-duration --events-out JSONL drifted";
}

/// Not a check: prints fresh constants for the tables above.
TEST(DefaultDurationPins, DISABLED_PrintCurrentPins) {
    for (const auto& pin : kDefaultPins) {
        const auto a = run_default(pin.preset);
        std::printf("    {\"%s\", 0x%016llxULL, 0x%016llxULL},\n", pin.preset,
                    static_cast<unsigned long long>(a.fingerprint),
                    static_cast<unsigned long long>(outcome_digest(a)));
    }
    for (const auto& hp : kHospitalPins) {
        const auto a = run_hospital(hp);
        std::printf("    {{\"%s\", 0x%016llxULL, 0x%016llxULL}, %llu},\n",
                    hp.pin.preset,
                    static_cast<unsigned long long>(a.fingerprint),
                    static_cast<unsigned long long>(outcome_digest(a)),
                    static_cast<unsigned long long>(hp.minutes));
    }
    std::printf("kPcaEventsJsonlFnv = 0x%016llxULL\n",
                static_cast<unsigned long long>(pca_events_jsonl_fnv()));
}

}  // namespace
