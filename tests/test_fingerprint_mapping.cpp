/// \file test_fingerprint_mapping.cpp
/// \brief The run fingerprint folds the run's own events, and this test
/// proves the old pins map onto it.
///
/// The pca-family fingerprint used to fold every signal sample, then a
/// (time, label) string for each discrete fact a component marked on
/// the trace recorder. Those facts are now events in the run's log, and
/// the fingerprint folds the events instead. The reference below folds
/// the same signals, then rebuilds the old label from each event that
/// replaced a mark, and must reproduce the fingerprints pinned before
/// the change. So the re-pin changed how the facts are folded, and not
/// which facts a run records or when.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/pca_scenario.hpp"
#include "scenario/scenario.hpp"
#include "sim/hash.hpp"
#include "tests/support/pinned_presets.hpp"

namespace {

using namespace mcps;
using obs::EventKind;

/// The component families of the pca presets, by endpoint name: the
/// first segment of the old labels.
std::string_view device_family(std::string_view src) {
    if (src == "pump1") return "pump";
    if (src == "vent1") return "vent";
    if (src == "xray1") return "xray";
    return "";
}

/// The label the fact behind \p e was marked with, or nullopt when no
/// mark recorded it (bus traffic, scenario bounds, pump commands,
/// undeploys, faults).
std::optional<std::string> legacy_label(const obs::EventLog& log,
                                        const obs::Event& e) {
    const std::string src{log.symbol(e.source)};
    const std::string detail{log.symbol(e.detail)};
    switch (e.kind) {
        case EventKind::kSupervisorState:
            if (detail.rfind("undeploy/", 0) == 0) return std::nullopt;
            return detail;
        case EventKind::kInterlockTrip:
            return "interlock/" + src + "/" + detail;
        case EventKind::kAppState:
            return (src == "xray_sync" ? "xray_sync/" : "interlock/") + src +
                   "/" + detail;
        case EventKind::kDeviceState:
            if (detail == "crash") return "crash/" + src;
            return std::string{device_family(src)} + "/" + src + "/" + detail;
        case EventKind::kAlarm:
            if (src == "monitor1") return "monitor_alarm/" + detail;
            if (src == "pump1") return "pump_alarm/" + src + "/" + detail;
            return "smart_alarm/" + src + "/" + detail;
        case EventKind::kClinician:
            return "nurse/" + src + "/" + detail;
        default:
            return std::nullopt;
    }
}

struct Reference {
    std::uint64_t fingerprint = 0;
    std::size_t marks = 0;
};

/// The fold as it was: signals, then (time, label) per former mark.
Reference legacy_fingerprint(const sim::TraceRecorder& trace,
                             const obs::EventLog& log,
                             std::size_t first_event) {
    std::uint64_t h = sim::kFnvOffset;
    for (const auto& name : trace.signal_names()) {
        h = sim::mix_string(h, name);
        for (const auto& s : trace.find(name)->samples()) {
            h = sim::mix(h, static_cast<std::uint64_t>(s.time.ticks()));
            h = sim::mix(h, std::bit_cast<std::uint64_t>(s.value));
        }
    }
    Reference ref;
    for (std::size_t i = first_event; i < log.size(); ++i) {
        const obs::Event& e = log.events()[i];
        if (const auto label = legacy_label(log, e)) {
            h = sim::mix(h, static_cast<std::uint64_t>(e.time.ticks()));
            h = sim::mix_string(h, *label);
            ++ref.marks;
        }
    }
    ref.fingerprint = h;
    return ref;
}

struct Folds {
    std::uint64_t production = 0;
    Reference legacy;
    std::size_t monitor_alarms = 0;
};

Folds run_both_folds(const scenario::ScenarioSpec& spec) {
    core::PcaScenario sc{scenario::make_pca_config(spec)};
    (void)sc.run();
    Folds f;
    f.production = sc.fingerprint();
    f.legacy = legacy_fingerprint(sc.trace(), sc.events(), sc.first_event());
    for (const obs::Event& e : sc.events().events()) {
        if (e.kind == EventKind::kAlarm &&
            sc.events().symbol(e.source) == "monitor1") {
            ++f.monitor_alarms;
        }
    }
    return f;
}

TEST(FingerprintMapping, LegacyFoldReproducesTheOldPins) {
    const struct {
        const char* preset;
        std::uint64_t old_pin;
    } kOld[] = {
        {"pca", 0x2d602a2bf10b25c0ULL},
        {"pca-open", 0x93b457f6f6524cbfULL},
        {"smart-alarm", 0xff9f292c6d94cc68ULL},
    };
    for (const auto& old : kOld) {
        const Folds f = run_both_folds(testsupport::pinned_spec(old.preset));
        EXPECT_EQ(f.legacy.fingerprint, old.old_pin) << old.preset;
        const testsupport::Pin* pin = testsupport::find_pin(old.preset);
        ASSERT_NE(pin, nullptr) << old.preset;
        EXPECT_EQ(f.production, pin->fingerprint) << old.preset;
    }
}

TEST(FingerprintMapping, LegacyFoldReproducesLongRuns) {
    // An interlock stop, its acks and the resume.
    scenario::ScenarioSpec pca = scenario::registry().default_spec("pca");
    pca.seed = 42;
    pca.minutes = 160;
    const Folds trip = run_both_folds(pca);
    EXPECT_EQ(trip.legacy.fingerprint, 0x6b4bd7d8de7db779ULL);
    EXPECT_EQ(trip.legacy.marks, 72u);

    // A smart-alarm shift whose monitor fires many times.
    scenario::ScenarioSpec shift =
        scenario::registry().default_spec("smart-alarm");
    shift.seed = 42;
    shift.minutes = 240;
    const Folds alarms = run_both_folds(shift);
    EXPECT_EQ(alarms.legacy.fingerprint, 0x5ca7b380297768f8ULL);
    EXPECT_EQ(alarms.monitor_alarms, 60u);
}

}  // namespace
