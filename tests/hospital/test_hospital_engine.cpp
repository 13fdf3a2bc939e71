/// \file test_hospital_engine.cpp
/// \brief Hospital engine determinism wall: byte-identical reports for
/// any `jobs` value, cohort sampling independent of iteration order and
/// shard assignment, and the flat-memory contract at population scale.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "hospital/hospital_engine.hpp"
#include "physio/population.hpp"
#include "scenario/scenario.hpp"
#include "sim/rng.hpp"

namespace {

using namespace mcps;
using hospital::HospitalConfig;
using hospital::HospitalEngine;
using hospital::HospitalReport;

/// Smoke-scale config: big enough for every mechanism (4 wards, alarms,
/// nurse pool), small enough to run in milliseconds.
HospitalConfig smoke_config() {
    HospitalConfig cfg;
    cfg.patients = 96;
    cfg.wards = 4;
    cfg.nurses_per_ward = 2;
    cfg.bus_capacity_per_tick = 16;
    cfg.duration = sim::SimDuration::minutes(5);
    return cfg;
}

void expect_hist_identical(const sim::Histogram& a, const sim::Histogram& b) {
    ASSERT_EQ(a.bins(), b.bins());
    EXPECT_EQ(a.underflow(), b.underflow());
    EXPECT_EQ(a.overflow(), b.overflow());
    for (std::size_t i = 0; i < a.bins(); ++i) {
        EXPECT_EQ(a.bin_count(i), b.bin_count(i)) << "bin " << i;
    }
}

/// The full jobs-invariance surface: everything a report exposes except
/// wall-clock throughput (the one field that may legitimately differ).
void expect_reports_identical(const HospitalReport& a,
                              const HospitalReport& b) {
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.patient_steps, b.patient_steps);
    EXPECT_EQ(a.boluses, b.boluses);
    EXPECT_EQ(a.storm_boluses, b.storm_boluses);
    EXPECT_EQ(a.vitals_messages, b.vitals_messages);
    EXPECT_EQ(a.alert_messages, b.alert_messages);
    EXPECT_EQ(a.bus_dropped, b.bus_dropped);
    EXPECT_EQ(a.bus_saturated_ticks, b.bus_saturated_ticks);
    EXPECT_EQ(a.max_bus_queue, b.max_bus_queue);
    EXPECT_EQ(a.alarms_raised, b.alarms_raised);
    EXPECT_EQ(a.alarms_attended, b.alarms_attended);
    EXPECT_EQ(a.interlock_stops, b.interlock_stops);
    EXPECT_EQ(a.nurse_stops, b.nurse_stops);
    EXPECT_EQ(a.rescues, b.rescues);
    EXPECT_EQ(a.deadline_violations, b.deadline_violations);
    EXPECT_EQ(a.first_deadline_violation_s, b.first_deadline_violation_s);
    EXPECT_EQ(a.severe_desat_patients, b.severe_desat_patients);
    EXPECT_EQ(a.state_bytes, b.state_bytes);
    // Exact-double aggregate identity (merge order is pinned to ward
    // order, so parallelism must not perturb a single bit).
    EXPECT_EQ(a.min_spo2.mean(), b.min_spo2.mean());
    EXPECT_EQ(a.min_spo2.min(), b.min_spo2.min());
    EXPECT_EQ(a.drug_mg.mean(), b.drug_mg.mean());
    EXPECT_EQ(a.drug_mg.max(), b.drug_mg.max());
    expect_hist_identical(a.spo2_floor_hist, b.spo2_floor_hist);
    expect_hist_identical(a.bus_delay_hist, b.bus_delay_hist);
    expect_hist_identical(a.alarm_wait_hist, b.alarm_wait_hist);
}

// ----------------------------------------------------- determinism ----

TEST(HospitalEngine, RerunIsByteIdentical) {
    const HospitalConfig cfg = smoke_config();
    const HospitalReport a = HospitalEngine{cfg}.run();
    const HospitalReport b = HospitalEngine{cfg}.run();
    EXPECT_NE(a.fingerprint, 0u);
    expect_reports_identical(a, b);
}

TEST(HospitalEngine, JobsValueNeverChangesTheReport) {
    // The acceptance bar: byte-identical reports for jobs in {1, 4, 16}.
    HospitalConfig cfg = smoke_config();
    cfg.wards = 16;  // more wards than workers at jobs=4, fewer at 16
    cfg.jobs = 1;
    const HospitalReport serial = HospitalEngine{cfg}.run();
    for (const unsigned jobs : {4u, 16u}) {
        cfg.jobs = jobs;
        const HospitalReport parallel = HospitalEngine{cfg}.run();
        expect_reports_identical(serial, parallel);
    }
}

TEST(HospitalEngine, JobsKnobIsInvisibleInRegistryArtifacts) {
    // Same contract end-to-end: the registry outcome (the byte surface
    // reports/pins/serve cache keys are built from) must be identical
    // for any jobs override, including the fingerprint.
    const auto& reg = scenario::registry();
    scenario::ScenarioSpec spec = reg.default_spec("hospital-small");
    spec.minutes = 2;
    const scenario::RunArtifacts one = reg.run(spec);
    for (const char* jobs : {"4", "16"}) {
        scenario::ScenarioSpec s = spec;
        s.set("jobs", jobs);
        const scenario::RunArtifacts many = reg.run(s);
        EXPECT_EQ(one.fingerprint, many.fingerprint) << "jobs=" << jobs;
        ASSERT_EQ(one.outcome.size(), many.outcome.size());
        for (std::size_t i = 0; i < one.outcome.size(); ++i) {
            EXPECT_EQ(one.outcome[i].first, many.outcome[i].first);
            EXPECT_EQ(one.outcome[i].second, many.outcome[i].second)
                << one.outcome[i].first << " drifted at jobs=" << jobs;
        }
    }
}

TEST(HospitalEngine, SeedChangesTheFingerprint) {
    HospitalConfig cfg = smoke_config();
    const HospitalReport a = HospitalEngine{cfg}.run();
    cfg.seed = 43;
    const HospitalReport b = HospitalEngine{cfg}.run();
    EXPECT_NE(a.fingerprint, b.fingerprint);
}

// ------------------------------------------------ shard independence ----

TEST(HospitalCohort, IndexedSamplingIsIterationOrderIndependent) {
    // sample_patient_indexed(i) must be a pure function of (seed, i):
    // visiting the cohort in any permutation yields the same patient at
    // every index — the property that makes ward grouping and shard
    // assignment unable to perturb the population.
    const std::uint64_t seed = 77;
    const std::size_t n = 64;
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});

    std::vector<physio::PatientParameters> forward(n);
    for (std::size_t i = 0; i < n; ++i) {
        forward[i] = physio::sample_patient_indexed(
            physio::Archetype::kElderly, seed, i);
    }
    // A deterministic shuffle (Fisher-Yates off a named stream).
    sim::RngStream shuf{seed, "test.cohort.shuffle"};
    for (std::size_t i = n - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(
            shuf.uniform_int(0, static_cast<std::int64_t>(i)));
        std::swap(order[i], order[j]);
    }
    for (const std::size_t i : order) {
        const physio::PatientParameters p = physio::sample_patient_indexed(
            physio::Archetype::kElderly, seed, i);
        EXPECT_EQ(p.pk.v1_liters, forward[i].pk.v1_liters) << i;
        EXPECT_EQ(p.pk.k10_per_min, forward[i].pk.k10_per_min) << i;
        EXPECT_EQ(p.pd.ec50_ng_ml, forward[i].pd.ec50_ng_ml) << i;
        EXPECT_EQ(p.pd.gamma, forward[i].pd.gamma) << i;
        EXPECT_EQ(p.resp.baseline_rr_per_min,
                  forward[i].resp.baseline_rr_per_min)
            << i;
        EXPECT_EQ(p.cardio.baseline_hr_bpm, forward[i].cardio.baseline_hr_bpm)
            << i;
    }
}

TEST(HospitalCohort, SharedStreamSamplingWouldCoupleToOrder) {
    // The anti-pattern the indexed sampler exists to prevent: threading
    // ONE stream through the loop makes patient i depend on how many
    // patients were sampled before it.
    sim::RngStream a{5, "test.cohort.shared"};
    sim::RngStream b{5, "test.cohort.shared"};
    (void)physio::sample_patient(physio::Archetype::kTypicalAdult, a);
    const auto a1 = physio::sample_patient(physio::Archetype::kTypicalAdult, a);
    const auto b0 = physio::sample_patient(physio::Archetype::kTypicalAdult, b);
    EXPECT_NE(a1.pk.v1_liters, b0.pk.v1_liters);
}

TEST(HospitalEngine, WardRangesPartitionThePopulation) {
    HospitalConfig cfg = smoke_config();
    cfg.patients = 103;  // deliberately not divisible by wards
    cfg.wards = 7;
    std::size_t covered = 0;
    std::size_t prev_end = 0;
    for (std::size_t w = 0; w < cfg.wards; ++w) {
        const auto [first, last] = cfg.ward_range(w);
        EXPECT_EQ(first, prev_end) << "gap or overlap at ward " << w;
        EXPECT_GT(last, first) << "empty ward " << w;
        // Remainder spreading: ward sizes differ by at most one.
        EXPECT_GE(last - first, cfg.patients / cfg.wards);
        EXPECT_LE(last - first, cfg.patients / cfg.wards + 1);
        covered += last - first;
        prev_end = last;
    }
    EXPECT_EQ(covered, cfg.patients);
    EXPECT_EQ(prev_end, cfg.patients);
}

// --------------------------------------------------- flat memory ----

TEST(HospitalEngine, StateBytesIsFlatInSimulatedDuration) {
    HospitalConfig cfg = smoke_config();
    cfg.duration = sim::SimDuration::minutes(2);
    const HospitalReport short_run = HospitalEngine{cfg}.run();
    cfg.duration = sim::SimDuration::minutes(60);
    const HospitalReport long_run = HospitalEngine{cfg}.run();
    EXPECT_EQ(short_run.state_bytes, long_run.state_bytes)
        << "steady-state footprint must not grow with simulated time";
}

TEST(HospitalEngine, StateBytesScalesWithPopulationNotEvents) {
    HospitalConfig cfg = smoke_config();
    const HospitalReport small = HospitalEngine{cfg}.run();
    cfg.patients = 960;
    cfg.wards = 8;
    const HospitalReport big = HospitalEngine{cfg}.run();
    EXPECT_GT(big.state_bytes, small.state_bytes);
    // ~10x patients must stay within ~20x bytes (SoA lanes + control
    // arrays are linear; ward buffers add a bounded constant per ward).
    EXPECT_LT(big.state_bytes, 20u * small.state_bytes);
    // Population scale stays flat overall: under 2 MiB for ~1000
    // patients even though the run dispatches millions of events.
    EXPECT_LT(big.state_bytes, 2u * 1024u * 1024u);
}

}  // namespace
