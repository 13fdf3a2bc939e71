/// \file test_registry.cpp
/// \brief The scenario registry surface: metadata, default-config
/// equivalence with the historical hard-coded trace presets, smoke-run
/// fingerprint determinism, metrics side-car, and the SpecError
/// contract for unknown scenarios/knobs and domain violations.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "core/pca_scenario.hpp"
#include "core/xray_scenario.hpp"
#include "obs/obs.hpp"
#include "physio/physio.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace mcps;
using scenario::ScenarioSpec;
using scenario::SpecError;

std::string jsonl(const obs::EventLog& log) {
    std::ostringstream os;
    obs::write_jsonl(log, os);
    return os.str();
}

template <typename Fn>
std::string spec_error_of(Fn&& fn) {
    try {
        fn();
    } catch (const SpecError& e) {
        return e.what();
    }
    return "";
}

// ----------------------------------------------------------- metadata ----

TEST(ScenarioRegistry, EnumeratesTheBuiltInScenarios) {
    const auto names = scenario::registry().names();
    ASSERT_GE(names.size(), 4u);
    for (const char* expected :
         {"pca", "pca-open", "smart-alarm", "xray", "xray-manual"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
    }
    for (const auto& n : names) {
        const scenario::ScenarioInfo& info = scenario::registry().info(n);
        EXPECT_FALSE(info.description.empty()) << n;
        EXPECT_FALSE(info.knobs.empty()) << n;
        EXPECT_GT(info.default_minutes, 0u) << n;
    }
}

TEST(ScenarioRegistry, KnobMetadataCarriesDomains) {
    const auto& pca = scenario::registry().info("pca");
    const scenario::KnobInfo* interlock = pca.find_knob("interlock");
    ASSERT_NE(interlock, nullptr);
    EXPECT_EQ(interlock->kind, scenario::KnobInfo::Kind::kChoice);
    EXPECT_EQ(interlock->choices,
              (std::vector<std::string>{"off", "spo2", "dual"}));

    const auto& xray = scenario::registry().info("xray");
    const scenario::KnobInfo* procedures = xray.find_knob("procedures");
    ASSERT_NE(procedures, nullptr);
    EXPECT_EQ(procedures->kind, scenario::KnobInfo::Kind::kCount);
    EXPECT_EQ(pca.find_knob("bogus"), nullptr);
}

TEST(ScenarioRegistry, DefaultSpecUsesScenarioDuration) {
    const ScenarioSpec s = scenario::registry().default_spec("smart-alarm");
    EXPECT_EQ(s.name, "smart-alarm");
    EXPECT_EQ(s.minutes, 480u);
    EXPECT_EQ(s.seed, 42u);
    EXPECT_TRUE(s.overrides.empty());
}

// ------------------------------------- historical-config equivalence ----
//
// The registry presets must equal the configurations `mcps trace`
// hard-coded before the registry existed: the committed golden traces
// were recorded with those, so any drift here is a byte-identity break.

TEST(ScenarioRegistry, PcaDefaultsMatchHistoricalTraceConfig) {
    ScenarioSpec spec;
    spec.name = "pca";  // seed=42 minutes=30: the golden-trace command
    const core::PcaScenarioConfig cfg = scenario::make_pca_config(spec);
    EXPECT_EQ(cfg.seed, 42u);
    EXPECT_EQ(cfg.duration, sim::SimDuration::minutes(30));
    EXPECT_EQ(cfg.demand_mode, core::DemandMode::kProxy);
    ASSERT_TRUE(cfg.interlock.has_value());
}

TEST(ScenarioRegistry, XrayDefaultsMatchHistoricalTraceConfig) {
    ScenarioSpec spec;
    spec.name = "xray";
    const core::XrayScenarioConfig cfg = scenario::make_xray_config(spec);
    EXPECT_EQ(cfg.seed, 42u);
    EXPECT_EQ(cfg.procedures, 10u);  // one per 3-minute gap of 30 minutes
    EXPECT_EQ(cfg.mode, core::CoordinationMode::kAutomated);

    spec.minutes = 2;  // below one gap: clamped to a single procedure
    EXPECT_EQ(scenario::make_xray_config(spec).procedures, 1u);
}

TEST(ScenarioRegistry, PcaEventStreamMatchesExplicitAssembly) {
    ScenarioSpec spec;
    spec.name = "pca";
    obs::EventLog via_registry;
    (void)scenario::registry().run(spec, {.events = &via_registry});

    // The pre-registry assembly, byte-for-byte (the trace CLI before
    // the registry migration).
    core::PcaScenarioConfig cfg;
    cfg.seed = 42;
    cfg.duration = sim::SimDuration::minutes(30);
    cfg.patient =
        physio::nominal_parameters(physio::Archetype::kHighRisk);
    cfg.demand_mode = core::DemandMode::kProxy;
    obs::EventLog direct;
    cfg.events = &direct;
    (void)core::run_pca_scenario(cfg);

    ASSERT_GT(direct.size(), 0u);
    EXPECT_EQ(jsonl(via_registry), jsonl(direct));
}

TEST(ScenarioRegistry, XrayEventStreamMatchesExplicitAssembly) {
    ScenarioSpec spec;
    spec.name = "xray";
    obs::EventLog via_registry;
    (void)scenario::registry().run(spec, {.events = &via_registry});

    core::XrayScenarioConfig cfg;
    cfg.seed = 42;
    cfg.procedures = 10;
    obs::EventLog direct;
    cfg.events = &direct;
    (void)core::run_xray_scenario(cfg);

    ASSERT_GT(direct.size(), 0u);
    EXPECT_EQ(jsonl(via_registry), jsonl(direct));
}

/// The fingerprint folds the run's own events, not the log around
/// them: for every pca- and x-ray-family preset it is the same with no
/// log, with an empty log (which also receives the bus traffic), and
/// with a log that already holds another run's events, as a ward
/// shard's log does.
TEST(ScenarioRegistry, FingerprintIsTheSameWithEventsOffOnAndShared) {
    for (const auto& name : scenario::registry().names()) {
        if (scenario::registry().info(name).family ==
            scenario::ScenarioFamily::kHospital) {
            continue;
        }
        SCOPED_TRACE(name);
        ScenarioSpec spec = scenario::registry().default_spec(name);
        spec.minutes = 5;

        const auto off = scenario::registry().run(spec);

        obs::EventLog own;
        const auto on = scenario::registry().run(spec, {.events = &own});
        EXPECT_EQ(on.fingerprint, off.fingerprint);
        EXPECT_GT(own.count(obs::EventKind::kBusPublish), 0u);

        ScenarioSpec other = spec;
        other.seed = spec.seed + 1;
        obs::EventLog shared;
        (void)scenario::registry().run(other, {.events = &shared});
        const std::size_t before = shared.size();
        ASSERT_GT(before, 0u);
        const auto after = scenario::registry().run(spec, {.events = &shared});
        EXPECT_EQ(after.fingerprint, off.fingerprint);

        // The second run's slice of the shared log is the first log.
        ASSERT_EQ(shared.size(), before + own.size());
        obs::EventLog slice;
        for (std::size_t i = before; i < shared.size(); ++i) {
            const obs::Event& e = shared.events()[i];
            slice.emit(e.kind, e.time, shared.symbol(e.source),
                       shared.symbol(e.detail), e.value);
        }
        EXPECT_TRUE(slice == own);
    }
}

// ------------------------------------------------- smoke & artifacts ----

TEST(ScenarioRegistry, OneMinuteSmokeRunsAreDeterministic) {
    for (const auto& name : scenario::registry().names()) {
        ScenarioSpec spec = scenario::registry().default_spec(name);
        spec.minutes = 1;

        const scenario::RunArtifacts a = scenario::registry().run(spec);
        const scenario::RunArtifacts b = scenario::registry().run(spec);
        EXPECT_NE(a.fingerprint, 0u) << name;
        EXPECT_EQ(a.fingerprint, b.fingerprint) << name;
        EXPECT_EQ(a.spec, spec) << name;
        ASSERT_FALSE(a.outcome.empty()) << name;
        EXPECT_NE(a.find("min_spo2"), nullptr) << name;
        EXPECT_EQ(a.fingerprint_hex().rfind("0x", 0), 0u);
        EXPECT_THROW((void)a.at("no_such_metric"), SpecError);
    }
}

TEST(ScenarioRegistry, MetricsSideCarIsPopulated) {
    ScenarioSpec spec = scenario::registry().default_spec("pca");
    spec.minutes = 1;
    obs::MetricsRegistry metrics;
    (void)scenario::registry().run(spec, {.metrics = &metrics});
    (void)scenario::registry().run(spec, {.metrics = &metrics});

    const obs::Counter* runs = metrics.find_counter("scenario/runs");
    ASSERT_NE(runs, nullptr);
    EXPECT_EQ(runs->value(), 2u);
    const obs::Gauge* spo2 = metrics.find_gauge("scenario/pca/min_spo2");
    ASSERT_NE(spo2, nullptr);
    EXPECT_GT(spo2->value(), 0.0);
}

// ------------------------------------------------------ error surface ----

TEST(ScenarioRegistry, UnknownScenarioListsKnownNames) {
    const std::string msg = spec_error_of(
        [] { (void)scenario::registry().info("nope"); });
    EXPECT_NE(msg.find("unknown scenario 'nope'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'pca'"), std::string::npos) << msg;
}

TEST(ScenarioRegistry, UnknownKnobAndDomainViolationsThrow) {
    ScenarioSpec spec;
    spec.name = "pca";
    spec.set("bogus", "1");
    EXPECT_NE(spec_error_of([&] { (void)scenario::registry().run(spec); })
                  .find("has no knob 'bogus'"),
              std::string::npos);

    ScenarioSpec choice;
    choice.name = "pca";
    choice.set("demand", "sideways");
    EXPECT_NE(spec_error_of([&] { (void)scenario::make_pca_config(choice); })
                  .find("expected one of 'normal' 'proxy'"),
              std::string::npos);

    ScenarioSpec range;
    range.name = "pca";
    range.set("loss", "1.5");
    EXPECT_NE(spec_error_of([&] { (void)scenario::make_pca_config(range); })
                  .find("a number in [0, 0.9]"),
              std::string::npos);

    ScenarioSpec count;
    count.name = "xray";
    count.set("procedures", "0");
    EXPECT_NE(spec_error_of([&] { (void)scenario::make_xray_config(count); })
                  .find("an integer in [1, 100000]"),
              std::string::npos);
}

TEST(ScenarioRegistry, PolicyRequiresAnEngagedInterlock) {
    ScenarioSpec spec;
    spec.name = "pca-open";  // preset has no interlock
    spec.set("policy", "fail-safe");
    EXPECT_NE(spec_error_of([&] { (void)scenario::make_pca_config(spec); })
                  .find("requires an interlock"),
              std::string::npos);

    spec.overrides.clear();
    spec.set("interlock", "spo2");
    spec.set("policy", "fail-operational");
    const core::PcaScenarioConfig cfg = scenario::make_pca_config(spec);
    ASSERT_TRUE(cfg.interlock.has_value());
    EXPECT_EQ(cfg.interlock->mode, core::InterlockMode::kSpO2Only);
    EXPECT_EQ(cfg.interlock->data_loss,
              core::DataLossPolicy::kFailOperational);
}

TEST(ScenarioRegistry, FamilyMismatchIsRejected) {
    ScenarioSpec spec;
    spec.name = "xray";
    EXPECT_NE(spec_error_of([&] { (void)scenario::make_pca_config(spec); })
                  .find("xray-family"),
              std::string::npos);
}

}  // namespace
