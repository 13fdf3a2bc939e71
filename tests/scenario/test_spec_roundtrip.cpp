/// \file test_spec_roundtrip.cpp
/// \brief ScenarioSpec serialization: the round-trip property
/// (`parse_spec(s.to_text()) == s`, `parse_spec_json(s.to_json()) == s`)
/// over randomized knob assignments sampled from the registry's own
/// knob domains, a mutation sweep over both serialized forms of every
/// preset, plus the exact parse-error contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <random>
#include <string>
#include <utility>

#include "scenario/scenario.hpp"
#include "sim/hash.hpp"
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
        // the registry validates it. The hospital family's two
        // cross-field constraints are tracked the same way: the sampled
        // ward count is clamped under the effective patient count
        // (preset default or sampled override), and a storm must start
        // before the run ends.
        bool interlock_engaged = (name == "pca");
        std::uint64_t patients = 0;
        bool storm = false;
        double storm_at_s = 0.0;
        if (info.family == scenario::ScenarioFamily::kHospital) {
            const auto preset =
                scenario::make_hospital_config(reg.default_spec(name));
            patients = static_cast<std::uint64_t>(preset.patients);
            storm_at_s = preset.storm_at_s;
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
            if (k.name == "storm-fraction") storm = std::stod(v) > 0.0;
            if (k.name == "storm-at-s") storm_at_s = std::stod(v);
            spec.set(k.name, std::move(v));
        }
        if (storm && storm_at_s >= static_cast<double>(spec.minutes) * 60.0) {
            spec.set("storm-at-s", std::to_string(spec.minutes * 30));
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

// ------------------------------------------------------ mutation sweep ----

/// One mutant of \p doc: one to three byte flips, byte inserts, deletes
/// or duplicated whitespace-separated tokens.
std::string mutate(std::string doc, std::mt19937_64& rng) {
    constexpr char kInteresting[] = "=-_.0123456789 \"{}:,\\ex";
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations && !doc.empty(); ++m) {
        const std::size_t at = rng() % doc.size();
        const char pick = kInteresting[rng() % (sizeof kInteresting - 1)];
        switch (rng() % 5) {
            case 0:
                doc[at] = static_cast<char>(doc[at] ^ (1 << (rng() % 8)));
                break;
            case 1: doc[at] = pick; break;
            case 2: doc.insert(at, 1, pick); break;
            case 3: doc.erase(at, 1 + rng() % 4); break;
            default: {
                std::size_t first = doc.rfind(' ', at);
                first = first == std::string::npos ? 0 : first + 1;
                std::size_t last = doc.find(' ', at);
                if (last == std::string::npos) last = doc.size();
                const std::string token = doc.substr(first, last - first);
                doc.insert(last, token);
                doc.insert(last, 1, ' ');
            }
        }
    }
    return doc;
}

/// Runs \p fn: true when it returns, false when it throws SpecError.
/// Any other exception is a test failure naming \p mutant.
template <typename Fn>
bool spec_ok(Fn&& fn, const std::string& mutant) {
    try {
        fn();
        return true;
    } catch (const SpecError&) {
        return false;
    } catch (const std::exception& e) {
        ADD_FAILURE() << "not a SpecError: " << e.what()
                      << "\nmutant: " << mutant;
        return false;
    }
}

/// Resolve \p spec through the registry into its family's config.
/// \throws SpecError as the registry does.
void resolve(const ScenarioSpec& spec) {
    switch (scenario::registry().info(spec.name).family) {
        case scenario::ScenarioFamily::kPca:
            (void)scenario::make_pca_config(spec);
            return;
        case scenario::ScenarioFamily::kXray:
            (void)scenario::make_xray_config(spec);
            return;
        case scenario::ScenarioFamily::kHospital:
            (void)scenario::make_hospital_config(spec);
            return;
    }
}

/// \p preset with every knob set, in declaration order, to a value at
/// the edge of its domain: the last choice, the low end of a number
/// range, a count of 1. The result resolves (the sweep asserts it).
ScenarioSpec with_every_knob(const std::string& preset) {
    ScenarioSpec spec = scenario::registry().default_spec(preset);
    for (const KnobInfo& k : scenario::registry().info(preset).knobs) {
        switch (k.kind) {
            case KnobInfo::Kind::kChoice:
                spec.set(k.name, k.choices.back());
                break;
            case KnobInfo::Kind::kNumber: {
                char buf[32];
                std::snprintf(buf, sizeof buf, "%g", k.lo);
                spec.set(k.name, buf);
                break;
            }
            case KnobInfo::Kind::kCount: spec.set(k.name, "1"); break;
        }
    }
    return spec;
}

/// ROADMAP's spec mutation sweep: 2000 mutants each of every preset's
/// text and JSON forms, bare and with every knob set. A mutant either
/// throws SpecError and nothing else, or parses to a spec whose text is
/// a fixed point of parse -> to_text (and whose JSON round-trips); that
/// spec then resolves through the registry or throws SpecError. The
/// outcome of every mutant, with the canonical text of each parsed one,
/// folds into a digest pinned here, so a change in what the parsers
/// accept or the registry resolves shows up as a digest change.
TEST(SpecMutation, SweepRejectsOrReachesAFixedPointThatResolves) {
    enum Outcome : std::uint64_t { kRejected = 1, kResolved, kUnresolved };
    std::mt19937_64 rng{20261017};
    std::uint64_t digest = sim::kFnvOffset;
    std::size_t counts[4] = {};

    for (const std::string& preset : scenario::registry().names()) {
        const ScenarioSpec bare = scenario::registry().default_spec(preset);
        const ScenarioSpec full = with_every_knob(preset);
        ASSERT_NO_THROW(resolve(full)) << full.to_text();
        for (const std::string& doc :
             {bare.to_text(), bare.to_json(), full.to_text(), full.to_json()}) {
            const bool json = doc.front() == '{';
            for (int iter = 0; iter < 2000; ++iter) {
                const std::string mutant = mutate(doc, rng);
                ScenarioSpec spec;
                Outcome outcome = kRejected;
                if (spec_ok([&] {
                        spec = json ? scenario::parse_spec_json(mutant)
                                    : scenario::parse_spec(mutant);
                    }, mutant)) {
                    const std::string text = spec.to_text();
                    EXPECT_EQ(scenario::parse_spec(text).to_text(), text)
                        << "mutant: " << mutant;
                    EXPECT_EQ(scenario::parse_spec_json(spec.to_json()), spec)
                        << "mutant: " << mutant;
                    digest = sim::mix_string(digest, text);
                    outcome = spec_ok([&] { resolve(spec); }, mutant)
                                  ? kResolved
                                  : kUnresolved;
                }
                digest = sim::mix(digest, outcome);
                ++counts[outcome];
            }
        }
    }
    EXPECT_GT(counts[kRejected], 0u);
    EXPECT_GT(counts[kResolved], 0u);
    EXPECT_GT(counts[kUnresolved], 0u);
    EXPECT_EQ(digest, 0x2007b5f1a3020bafULL)
        << counts[kRejected] << " rejected, " << counts[kResolved]
        << " resolved, " << counts[kUnresolved] << " unresolved";
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

TEST(SpecErrors, MinutesMustFitBelowNever) {
    // minutes x 60e6 us must stay below SimTime::never() (INT64_MAX).
    constexpr std::uint64_t kMax = scenario::kMaxSpecMinutes;
    static_assert(kMax == 153722867280ULL);
    const std::string max = std::to_string(kMax);
    const std::string over = std::to_string(kMax + 1);
    const std::string rejected_over =
        "spec: minutes: " + over + " exceeds the largest horizon (" + max + ")";

    // Text form: the largest horizon parses, one more minute does not.
    EXPECT_EQ(scenario::parse_spec("pca minutes=" + max).minutes, kMax);
    EXPECT_EQ(spec_error_of([&] {
                  (void)scenario::parse_spec("pca minutes=" + over);
              }),
              rejected_over);
    // The value whose product wraps back to a plausible horizon, and
    // the one that used to fail late in run_until.
    for (const char* v : {"307445734561825861", "18446744073709551615"}) {
        EXPECT_EQ(spec_error_of([&] {
                      (void)scenario::parse_spec(std::string{"pca minutes="} + v);
                  }),
                  std::string{"spec: minutes: "} + v +
                      " exceeds the largest horizon (" + max + ")")
            << v;
    }

    // JSON form.
    EXPECT_EQ(scenario::parse_spec_json(R"({"scenario": "xray", "minutes": )" +
                                        max + "}")
                  .minutes,
              kMax);
    EXPECT_EQ(spec_error_of([&] {
                  (void)scenario::parse_spec_json(
                      R"({"scenario": "xray", "minutes": )" + over + "}");
              }),
              rejected_over);

    // A spec built in code (`mcps run --minutes`) is checked when the
    // registry resolves it, for every family.
    for (const char* name : {"pca", "xray", "hospital-small"}) {
        ScenarioSpec spec = scenario::registry().default_spec(name);
        spec.minutes = kMax + 1;
        EXPECT_EQ(spec_error_of([&] { (void)scenario::registry().run(spec); }),
                  rejected_over)
            << name;
        spec.minutes = 307445734561825861ULL;
        EXPECT_NE(spec_error_of([&] { (void)scenario::registry().run(spec); }),
                  "")
            << name;
    }
    ScenarioSpec at_max = scenario::registry().default_spec("pca");
    at_max.minutes = kMax;
    EXPECT_EQ(scenario::make_pca_config(at_max).duration.ticks(),
              static_cast<std::int64_t>(kMax) * 60'000'000);
}

TEST(SpecErrors, SetValidatesKeyAndValue) {
    ScenarioSpec s;
    s.name = "pca";
    EXPECT_THROW(s.set("Bad Key", "x"), SpecError);
    EXPECT_THROW(s.set("demand", "has space"), SpecError);
    EXPECT_THROW(s.set("demand", ""), SpecError);
}

}  // namespace
