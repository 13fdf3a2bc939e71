/// \file test_patient_batch.cpp
/// \brief SoA differential wall: `physio::PatientBatch` must be
/// BIT-IDENTICAL to the scalar `physio::Patient` it batches.
///
/// The batch exists purely for throughput — it replicates the scalar
/// per-lane expression sequence exactly, so under the project's default
/// flags (no -ffast-math, no FMA contraction) every observable must
/// compare equal with `EXPECT_EQ` on raw doubles, not merely NEAR.
/// The suites below drive randomized cohorts through randomized drug
/// schedules (boluses, infusion changes, antagonist rescues) and hold
/// that line; any drift is a correctness bug in the batch, never an
/// acceptable rounding difference.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "physio/patient.hpp"
#include "physio/patient_batch.hpp"
#include "physio/population.hpp"
#include "sim/rng.hpp"

namespace {

using namespace mcps;
using physio::Archetype;
using physio::Dose;
using physio::InfusionRate;
using physio::Patient;
using physio::PatientBatch;
using physio::PatientParameters;

/// A randomized cohort: index i is a pure function of (seed, i), the
/// same contract the hospital engine relies on.
std::vector<PatientParameters> cohort(std::uint64_t seed, std::size_t n) {
    const auto& archetypes = physio::all_archetypes();
    std::vector<PatientParameters> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(physio::sample_patient_indexed(
            archetypes[i % archetypes.size()], seed, i));
    }
    return out;
}

/// Every observable the two implementations share, compared exactly.
void expect_bit_identical(const Patient& p, const PatientBatch& b,
                          std::size_t i, const char* when) {
    EXPECT_EQ(p.spo2().as_percent(), b.spo2(i).as_percent()) << when;
    EXPECT_EQ(p.resp_rate().as_per_minute(), b.resp_rate(i).as_per_minute())
        << when;
    EXPECT_EQ(p.etco2().as_mmhg(), b.etco2(i).as_mmhg()) << when;
    EXPECT_EQ(p.heart_rate().as_bpm(), b.heart_rate(i).as_bpm()) << when;
    EXPECT_EQ(p.is_apneic(), b.is_apneic(i)) << when;
    EXPECT_EQ(p.respiratory_drive(), b.respiratory_drive(i)) << when;
    EXPECT_EQ(p.paco2_mmhg(), b.paco2_mmhg(i)) << when;
    EXPECT_EQ(p.pao2_mmhg(), b.pao2_mmhg(i)) << when;
    EXPECT_EQ(p.antagonist_level(), b.antagonist_level(i)) << when;
    EXPECT_EQ(p.infusion_rate().as_mg_per_hour(),
              b.infusion_rate(i).as_mg_per_hour())
        << when;
    EXPECT_EQ(p.pk().effect_site().as_ng_per_ml(), b.effect_site(i).as_ng_per_ml())
        << when;
    EXPECT_EQ(p.pk().plasma().as_ng_per_ml(), b.plasma(i).as_ng_per_ml()) << when;
    EXPECT_EQ(p.pk().body_burden().as_mg(), b.body_burden(i).as_mg()) << when;
    EXPECT_EQ(p.pk().total_delivered().as_mg(), b.total_delivered(i).as_mg())
        << when;
    EXPECT_EQ(p.pk().total_eliminated().as_mg(), b.total_eliminated(i).as_mg())
        << when;
    EXPECT_EQ(p.elapsed_seconds(), b.elapsed_seconds(i)) << when;
}

// ------------------------------------------------ differential wall ----

TEST(PatientBatchDifferential, RandomCohortsAreBitIdenticalToScalar) {
    for (const std::uint64_t seed : {7ULL, 1234ULL, 999983ULL}) {
        const auto params = cohort(seed, 24);
        std::vector<Patient> scalars;
        PatientBatch batch;
        batch.reserve(params.size());
        for (const auto& p : params) {
            scalars.emplace_back(p);
            (void)batch.add(p);
        }

        // One schedule stream drives BOTH implementations: boluses,
        // infusion-rate changes and antagonist rescues land on the same
        // lanes at the same ticks with the same magnitudes.
        sim::RngStream sched{seed, "batch.diff.schedule"};
        const double dt = 1.0;
        for (int tick = 0; tick < 600; ++tick) {
            for (std::size_t i = 0; i < scalars.size(); ++i) {
                if (sched.bernoulli(0.01)) {
                    const Dose d = Dose::mg(sched.uniform(0.2, 2.0));
                    scalars[i].bolus(d);
                    batch.bolus(i, d);
                }
                if (sched.bernoulli(0.005)) {
                    const InfusionRate r =
                        InfusionRate::mg_per_hour(sched.uniform(0.0, 2.0));
                    scalars[i].set_infusion_rate(r);
                    batch.set_infusion_rate(i, r);
                }
                if (sched.bernoulli(0.002)) {
                    const double potency = sched.uniform(5.0, 20.0);
                    const double hl = sched.uniform(600.0, 2400.0);
                    scalars[i].give_antagonist(potency, hl);
                    batch.give_antagonist(i, potency, hl);
                }
            }
            batch.step_all(dt);
            for (auto& p : scalars) p.step(dt);
            if (tick % 97 == 0) {
                for (std::size_t i = 0; i < scalars.size(); ++i) {
                    expect_bit_identical(scalars[i], batch, i, "mid-run");
                }
                if (HasFailure()) return;  // don't drown the log
            }
        }
        for (std::size_t i = 0; i < scalars.size(); ++i) {
            expect_bit_identical(scalars[i], batch, i, "final");
        }
    }
}

TEST(PatientBatchDifferential, SubSecondTimestepStaysBitIdentical) {
    const auto params = cohort(11, 8);
    std::vector<Patient> scalars;
    PatientBatch batch;
    for (const auto& p : params) {
        scalars.emplace_back(p);
        (void)batch.add(p);
    }
    scalars[3].bolus(Dose::mg(1.5));
    batch.bolus(3, Dose::mg(1.5));
    for (int tick = 0; tick < 1200; ++tick) {
        batch.step_all(0.25);
        for (auto& p : scalars) p.step(0.25);
    }
    for (std::size_t i = 0; i < scalars.size(); ++i) {
        expect_bit_identical(scalars[i], batch, i, "dt=0.25");
    }
}

TEST(PatientBatchDifferential, EquilibriumInitializationMatchesScalarCtor) {
    const auto params = cohort(3, 16);
    PatientBatch batch;
    for (std::size_t i = 0; i < params.size(); ++i) {
        ASSERT_EQ(batch.add(params[i]), i);
        const Patient p{params[i]};
        expect_bit_identical(p, batch, i, "t=0");
    }
}

// ------------------------------------------------- cached factors ----
//
// The batch keeps each lane's dt-keyed relaxation factors and
// pow(ec50, gamma) instead of recomputing them every step. These suites
// drive the cache's edges: a dt that changes between calls, an
// antagonist given after the factors were built, and a copied batch.

/// A cohort with drug on board, so the effect-site path (and with it the
/// cached Hill term) is live in every lane.
struct DosedCohort {
    std::vector<Patient> scalars;
    PatientBatch batch;

    DosedCohort(std::uint64_t seed, std::size_t n) {
        for (const auto& p : cohort(seed, n)) {
            scalars.emplace_back(p);
            (void)batch.add(p);
        }
        for (std::size_t i = 0; i < n; ++i) {
            const Dose d = Dose::mg(0.5 + 0.25 * static_cast<double>(i % 5));
            const InfusionRate r = InfusionRate::mg_per_hour(0.5);
            scalars[i].bolus(d);
            batch.bolus(i, d);
            scalars[i].set_infusion_rate(r);
            batch.set_infusion_rate(i, r);
        }
    }

    void step(double dt, int ticks) {
        for (int t = 0; t < ticks; ++t) {
            batch.step_all(dt);
            for (auto& p : scalars) p.step(dt);
        }
    }

    void expect_identical(const char* when) const {
        for (std::size_t i = 0; i < scalars.size(); ++i) {
            expect_bit_identical(scalars[i], batch, i, when);
        }
    }
};

TEST(PatientBatchDifferential, DtChangeMidRunRebuildsFactors) {
    DosedCohort c{41, 12};
    c.step(1.0, 200);
    c.expect_identical("dt=1.0");
    c.step(0.25, 400);
    c.expect_identical("dt=1.0 -> 0.25");
    c.step(1.0, 150);
    c.expect_identical("dt=0.25 -> 1.0");
    c.step(0.5, 300);
    c.expect_identical("dt=1.0 -> 0.5");
}

TEST(PatientBatchDifferential, DtChangeBetweenRangesStaysPerLane) {
    // Two ranges stepped with different dt in the same tick: each lane's
    // cache follows its own dt, as disjoint ward ranges on different
    // threads would.
    DosedCohort c{43, 10};
    for (int t = 0; t < 240; ++t) {
        const double dt_low = (t / 60) % 2 == 0 ? 1.0 : 0.5;
        c.batch.step_range(0, 5, dt_low);
        c.batch.step_range(5, 10, 0.25);
        for (std::size_t i = 0; i < 5; ++i) c.scalars[i].step(dt_low);
        for (std::size_t i = 5; i < 10; ++i) c.scalars[i].step(0.25);
    }
    c.expect_identical("per-range dt");
}

TEST(PatientBatchDifferential, DrugFreeDecayToZeroStaysBitIdentical) {
    // After a 30 mg bolus and no further drug, every lane's PK amounts
    // fall below the smallest normal double and are clamped to exactly
    // zero (the slowest archetype after about 1400 h). Both
    // implementations clamp the same way over the whole span.
    DosedCohort c{53, physio::all_archetypes().size()};
    for (std::size_t i = 0; i < c.scalars.size(); ++i) {
        c.scalars[i].set_infusion_rate(InfusionRate::zero());
        c.batch.set_infusion_rate(i, InfusionRate::zero());
        c.scalars[i].bolus(Dose::mg(30.0));
        c.batch.bolus(i, Dose::mg(30.0));
    }
    const auto all_zero = [&c] {
        for (std::size_t i = 0; i < c.scalars.size(); ++i) {
            if (c.batch.body_burden(i) != Dose::zero() ||
                c.batch.effect_site(i).as_ng_per_ml() != 0.0) {
                return false;
            }
        }
        return true;
    };
    constexpr int kTicksPer50h = 50 * 360;  // 10 s ticks
    for (int hours = 0; hours < 1500 && !all_zero(); hours += 50) {
        c.step(10.0, kTicksPer50h);
        c.expect_identical("drug-free decay");
        if (HasFailure()) return;
    }
    EXPECT_TRUE(all_zero()) << "PK amounts still nonzero after 1500 h";
}

TEST(PatientBatchDifferential, AntagonistAfterFactorsAreCachedAndAgain) {
    DosedCohort c{47, 8};
    c.step(1.0, 120);  // factors built, antagonist-free Hill term cached
    for (std::size_t i = 0; i < 8; ++i) {
        c.scalars[i].give_antagonist(10.0, 30.0);
        c.batch.give_antagonist(i, 10.0, 30.0);
    }
    c.step(1.0, 60);
    c.expect_identical("antagonist active");
    ASSERT_GT(c.batch.antagonist_level(0), 0.0);

    // 30 s half-life: the level falls below the 1e-4 cut-off within
    // ~400 s and snaps to exactly 0, which brings the cached term back.
    c.step(1.0, 400);
    c.expect_identical("antagonist decayed");
    for (std::size_t i = 0; i < 8; ++i) {
        ASSERT_EQ(c.batch.antagonist_level(i), 0.0) << i;
    }

    // A second dose with another half-life, on a sub-second step.
    for (std::size_t i = 0; i < 8; ++i) {
        c.scalars[i].give_antagonist(6.0, 90.0);
        c.batch.give_antagonist(i, 6.0, 90.0);
    }
    c.step(0.5, 300);
    c.expect_identical("second antagonist");
    ASSERT_GT(c.batch.antagonist_level(0), 0.0);
    c.step(1.0, 1500);
    c.expect_identical("second antagonist decayed");
    EXPECT_EQ(c.batch.antagonist_level(0), 0.0);
}

TEST(PatientBatchDifferential, CopiedBatchStepsLikeItsSource) {
    // A copy taken after the factors were built (perfbench's layer probe
    // copies a prepared batch) carries its caches along and stays
    // bit-identical to the source and to the scalar model.
    DosedCohort c{53, 12};
    c.step(1.0, 90);
    PatientBatch copy = c.batch;
    for (int t = 0; t < 300; ++t) {
        const double dt = t < 150 ? 1.0 : 0.25;
        if (t == 100) {
            c.scalars[3].give_antagonist(8.0, 120.0);
            c.batch.give_antagonist(3, 8.0, 120.0);
            copy.give_antagonist(3, 8.0, 120.0);
        }
        c.batch.step_all(dt);
        copy.step_all(dt);
        for (auto& p : c.scalars) p.step(dt);
    }
    c.expect_identical("source");
    for (std::size_t i = 0; i < c.scalars.size(); ++i) {
        expect_bit_identical(c.scalars[i], copy, i, "copy");
    }
}

// ------------------------------------------- lane-range independence ----

TEST(PatientBatch, StepRangeOrderDoesNotChangeLanes) {
    // The hospital engine steps disjoint ward ranges from different
    // threads; a lane's trajectory must not depend on which range it
    // was stepped through or in what order ranges were visited.
    const auto params = cohort(21, 32);
    PatientBatch a, b;
    for (const auto& p : params) {
        (void)a.add(p);
        (void)b.add(p);
    }
    a.bolus(5, Dose::mg(2.0));
    b.bolus(5, Dose::mg(2.0));
    for (int tick = 0; tick < 300; ++tick) {
        a.step_all(1.0);
        b.step_range(24, 32, 1.0);  // reversed visit order, uneven split
        b.step_range(8, 24, 1.0);
        b.step_range(0, 8, 1.0);
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
        EXPECT_EQ(a.spo2_raw(i), b.spo2_raw(i)) << i;
        EXPECT_EQ(a.paco2_mmhg(i), b.paco2_mmhg(i)) << i;
        EXPECT_EQ(a.body_burden(i).as_mg(), b.body_burden(i).as_mg()) << i;
    }
}

// ------------------------------------------------- contract parity ----

TEST(PatientBatch, ValidationMatchesScalarContract) {
    PatientBatch batch;
    const std::size_t i = batch.add(
        physio::nominal_parameters(Archetype::kTypicalAdult));

    EXPECT_THROW(batch.bolus(i, Dose::mg(-1.0)), std::invalid_argument);
    EXPECT_THROW(batch.set_infusion_rate(i, InfusionRate::mg_per_hour(-0.1)),
                 std::invalid_argument);
    EXPECT_THROW(batch.give_antagonist(i, 0.0, 600.0), std::invalid_argument);
    EXPECT_THROW(batch.step_range(0, 2, 1.0), std::out_of_range);
    EXPECT_THROW(batch.step_all(0.0), std::invalid_argument);

    PatientParameters bad =
        physio::nominal_parameters(Archetype::kTypicalAdult);
    bad.pd.ec50_ng_ml = -1.0;
    EXPECT_THROW((void)batch.add(bad), std::invalid_argument);
    // A rejected add must not leave a half-initialized lane behind.
    EXPECT_EQ(batch.size(), 1u);
    batch.step_all(1.0);
}

TEST(PatientBatch, StateBytesIsFlatInDurationAndLinearInPatients) {
    PatientBatch small, large;
    const auto p = physio::nominal_parameters(Archetype::kTypicalAdult);
    for (int i = 0; i < 10; ++i) (void)small.add(p);
    for (int i = 0; i < 1000; ++i) (void)large.add(p);

    const std::size_t before = large.state_bytes();
    for (int tick = 0; tick < 500; ++tick) large.step_all(1.0);
    EXPECT_EQ(large.state_bytes(), before)
        << "stepping must not allocate (flat-memory contract)";
    EXPECT_GT(large.state_bytes(), small.state_bytes());
    EXPECT_LT(large.state_bytes(), 4u * 1024u * 1024u)
        << "1000 patients must stay well under a few MiB";
}

}  // namespace
