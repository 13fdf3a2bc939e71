/// \file test_spec_roundtrip.cpp
/// \brief ScenarioSpec serialization: the round-trip property
/// (`parse_spec(s.to_text()) == s`, `parse_spec_json(s.to_json()) == s`)
/// over randomized knob assignments sampled from the registry's own
/// knob domains, plus the exact parse-error contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "scenario/scenario.hpp"
#include "sim/rng.hpp"

namespace {

using namespace mcps;
using scenario::KnobInfo;
using scenario::ScenarioSpec;
using scenario::SpecError;

template <typename Fn>
std::string spec_error_of(Fn&& fn) {
    try {
        fn();
    } catch (const SpecError& e) {
        return e.what();
    }
    return "";
}

// ------------------------------------------------------- fixed specs ----

TEST(SpecRoundTrip, TextFormIsCanonical) {
    ScenarioSpec s;
    s.name = "pca";
    s.seed = 7;
    s.minutes = 120;
    s.set("demand", "proxy");
    s.set("interlock", "dual");
    EXPECT_EQ(s.to_text(), "pca seed=7 minutes=120 demand=proxy interlock=dual");
    EXPECT_EQ(scenario::parse_spec(s.to_text()), s);
}

TEST(SpecRoundTrip, JsonFormRoundTrips) {
    ScenarioSpec s;
    s.name = "xray-manual";
    s.minutes = 60;
    s.set("procedures", "40");
    EXPECT_EQ(s.to_json(),
              "{\"scenario\": \"xray-manual\", \"seed\": 42, \"minutes\": 60, "
              "\"overrides\": {\"procedures\": \"40\"}}");
    EXPECT_EQ(scenario::parse_spec_json(s.to_json()), s);
}

TEST(SpecRoundTrip, DefaultsAreExplicitInSerializedForms) {
    const ScenarioSpec s = scenario::parse_spec("pca");
    EXPECT_EQ(s.seed, 42u);
    EXPECT_EQ(s.minutes, 30u);
    EXPECT_EQ(s.to_text(), "pca seed=42 minutes=30");
}

TEST(SpecRoundTrip, SetReplacesExistingKeyInPlace) {
    ScenarioSpec s;
    s.name = "pca";
    s.set("interlock", "spo2");
    s.set("demand", "proxy");
    s.set("interlock", "dual");
    ASSERT_EQ(s.overrides.size(), 2u);
    EXPECT_EQ(*s.find("interlock"), "dual");
    EXPECT_EQ(s.overrides[0].first, "interlock");  // order preserved
}

// -------------------------------------------------- randomized property ----

/// Sample one valid override value from a knob's declared domain.
std::string sample_value(const KnobInfo& k, sim::RngStream& rng) {
    switch (k.kind) {
        case KnobInfo::Kind::kChoice:
            return k.choices[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(k.choices.size()) - 1))];
        case KnobInfo::Kind::kNumber: {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.6g",
                          rng.uniform(k.lo, k.hi));
            return buf;
        }
        case KnobInfo::Kind::kCount: {
            const auto hi = static_cast<std::int64_t>(
                k.max_count < 1000 ? k.max_count : 1000);
            return std::to_string(rng.uniform_int(1, hi));
        }
    }
    return "";
}

TEST(SpecRoundTrip, RandomizedSpecsRoundTripAndResolve) {
    sim::RngStream rng{2026, "spec.roundtrip"};
    const auto& reg = scenario::registry();
    const auto names = reg.names();
    ASSERT_GE(names.size(), 4u);

    for (int iter = 0; iter < 200; ++iter) {
        const std::string& name = names[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(names.size()) - 1))];
        const scenario::ScenarioInfo& info = reg.info(name);

        ScenarioSpec spec;
        spec.name = name;
        spec.seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
        spec.minutes =
            static_cast<std::uint64_t>(rng.uniform_int(1, 480));

        // Knobs apply in declaration order; "policy" is only legal when
        // an interlock is engaged, which the sampler tracks the same way
        // the registry validates it. The hospital family's one
        // cross-field constraint (wards <= patients) is tracked the same
        // way: the sampled ward count is clamped under the effective
        // patient count (preset default or sampled override).
        bool interlock_engaged = (name == "pca");
        std::uint64_t patients = 0;
        if (info.family == scenario::ScenarioFamily::kHospital) {
            patients = static_cast<std::uint64_t>(
                scenario::make_hospital_config(reg.default_spec(name))
                    .patients);
        }
        for (const KnobInfo& k : info.knobs) {
            if (!rng.bernoulli(0.5)) continue;
            if (k.name == "policy" && !interlock_engaged) continue;
            std::string v = sample_value(k, rng);
            if (k.name == "interlock") interlock_engaged = (v != "off");
            if (k.name == "patients") patients = std::stoull(v);
            if (k.name == "wards" && std::stoull(v) > patients) {
                v = std::to_string(patients);
            }
            spec.set(k.name, std::move(v));
        }

        // Both serializations reproduce the spec exactly...
        EXPECT_EQ(scenario::parse_spec(spec.to_text()), spec)
            << spec.to_text();
        EXPECT_EQ(scenario::parse_spec_json(spec.to_json()), spec)
            << spec.to_json();

        // ...and the registry resolves every sampled assignment into a
        // concrete config without complaint (domain sampling is sound).
        if (info.family == scenario::ScenarioFamily::kPca) {
            EXPECT_NO_THROW((void)scenario::make_pca_config(spec))
                << spec.to_text();
        } else if (info.family == scenario::ScenarioFamily::kHospital) {
            EXPECT_NO_THROW((void)scenario::make_hospital_config(spec))
                << spec.to_text();
        } else {
            EXPECT_NO_THROW((void)scenario::make_xray_config(spec))
                << spec.to_text();
        }
    }
}

// ----------------------------------------------------- error contract ----

TEST(SpecErrors, EmptyAndMalformedText) {
    EXPECT_EQ(spec_error_of([] { (void)scenario::parse_spec("  "); }),
              "spec: empty spec");
    EXPECT_EQ(spec_error_of([] { (void)scenario::parse_spec("seed=1"); }),
              "spec: expected a scenario name first, got 'seed=1'");
    EXPECT_EQ(spec_error_of([] { (void)scenario::parse_spec("pca demand"); }),
              "spec: expected key=value, got 'demand'");
    EXPECT_EQ(
        spec_error_of([] { (void)scenario::parse_spec("pca seed=x"); }),
        "spec: seed: expected an integer, got 'x'");
    EXPECT_EQ(spec_error_of(
                  [] { (void)scenario::parse_spec("pca seed=1 seed=2"); }),
              "spec: duplicate key 'seed'");
    EXPECT_EQ(spec_error_of([] { (void)scenario::parse_spec("pca A=1"); }),
              "spec: invalid key 'A' (want [a-z0-9_-]+)");
}

TEST(SpecErrors, MalformedJson) {
    EXPECT_EQ(spec_error_of([] { (void)scenario::parse_spec_json("{}"); }),
              "spec json: missing 'scenario' key");
    EXPECT_EQ(spec_error_of([] {
                  (void)scenario::parse_spec_json("{\"scenario\": \"pca\"} x");
              }),
              "spec json: trailing content after object");
    EXPECT_EQ(spec_error_of([] {
                  (void)scenario::parse_spec_json(
                      "{\"scenario\": \"pca\", \"bogus\": 1}");
              }),
              "spec json: unknown key 'bogus'");
    EXPECT_NE(spec_error_of([] { (void)scenario::parse_spec_json("{"); }),
              "");
}

TEST(SpecErrors, JsonEscapesDecodeBeforeValidation) {
    // The shared reader's escapes are accepted in spec strings...
    const ScenarioSpec s = scenario::parse_spec_json(
        R"({"scenario": "p\u0063a", "overrides": {"demand": "pro\/xy"}})");
    EXPECT_EQ(s.name, "pca");
    ASSERT_EQ(s.overrides.size(), 1u);
    EXPECT_EQ(s.overrides[0].second, "pro/xy");
    // ...but the decoded text must still be in the spec charset.
    EXPECT_EQ(spec_error_of([] {
                  (void)scenario::parse_spec_json(
                      R"({"scenario": "pca", "overrides": {"d": "a\u0020b"}})");
              }),
              "spec: d: invalid value 'a b'");
    EXPECT_NE(spec_error_of([] {
                  (void)scenario::parse_spec_json(R"({"scenario": "\u00e9"})");
              }),
              "");
    // A value of the wrong kind is a spec error naming the key.
    EXPECT_EQ(spec_error_of([] {
                  (void)scenario::parse_spec_json(
                      R"({"scenario": "pca", "seed": "7"})");
              }),
              "spec json: seed: expected an integer");
    EXPECT_EQ(spec_error_of([] {
                  (void)scenario::parse_spec_json(
                      R"({"scenario": "pca", "minutes": 1.5})");
              }),
              "spec: minutes: expected an integer, got '1.5'");
}

TEST(SpecErrors, SetValidatesKeyAndValue) {
    ScenarioSpec s;
    s.name = "pca";
    EXPECT_THROW(s.set("Bad Key", "x"), SpecError);
    EXPECT_THROW(s.set("demand", "has space"), SpecError);
    EXPECT_THROW(s.set("demand", ""), SpecError);
}

}  // namespace
