/// \file test_patient.cpp
/// \brief Unit + property tests for the whole-patient model, archetypes
/// and the PCA demand process.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "physio/physio.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace {

using namespace mcps::physio;

TEST(Units, DoseArithmeticAndComparison) {
    auto a = Dose::mg(2.0);
    auto b = Dose::mg(0.5);
    EXPECT_EQ((a + b).as_mg(), 2.5);
    EXPECT_EQ((a - b).as_mg(), 1.5);
    EXPECT_EQ((a * 2.0).as_mg(), 4.0);
    EXPECT_LT(b, a);
    a += b;
    EXPECT_EQ(a.as_mg(), 2.5);
}

TEST(Units, SpO2Validation) {
    EXPECT_THROW((void)SpO2::percent(-1.0), std::out_of_range);
    EXPECT_THROW((void)SpO2::percent(101.0), std::out_of_range);
    EXPECT_EQ(SpO2::percent_clamped(150.0).as_percent(), 100.0);
    EXPECT_EQ(SpO2::percent_clamped(-5.0).as_percent(), 0.0);
    EXPECT_EQ(SpO2::percent(97.0).as_percent(), 97.0);
}

TEST(Units, RatesRejectNegatives) {
    EXPECT_THROW((void)RespRate::per_minute(-1), std::out_of_range);
    EXPECT_THROW((void)EtCO2::mmhg(-1), std::out_of_range);
    EXPECT_THROW((void)HeartRate::bpm(-1), std::out_of_range);
    EXPECT_EQ(RespRate::per_minute_clamped(-3).as_per_minute(), 0.0);
}

TEST(HillEffect, ZeroAtZeroHalfAtEc50) {
    PdParameters pd;
    EXPECT_EQ(hill_effect(pd, Concentration::zero()), 0.0);
    EXPECT_NEAR(hill_effect(pd, Concentration::ng_per_ml(pd.ec50_ng_ml)),
                0.5 * pd.emax, 1e-12);
    // Monotone increasing.
    double prev = 0.0;
    for (double c = 1.0; c < 300.0; c += 5.0) {
        const double e = hill_effect(pd, Concentration::ng_per_ml(c));
        ASSERT_GE(e, prev);
        ASSERT_LT(e, pd.emax + 1e-12);
        prev = e;
    }
}

TEST(Severinghaus, KnownAnchors) {
    EXPECT_NEAR(severinghaus_spo2(100.0), 97.7, 0.5);
    EXPECT_NEAR(severinghaus_spo2(60.0), 89.5, 1.5);
    EXPECT_NEAR(severinghaus_spo2(27.0), 50.0, 3.0);  // P50
    EXPECT_EQ(severinghaus_spo2(0.0), 0.0);
    EXPECT_EQ(severinghaus_spo2(-5.0), 0.0);
    // Monotone.
    double prev = -1;
    for (double p = 1; p < 600; p += 5) {
        const double s = severinghaus_spo2(p);
        ASSERT_GE(s, prev);
        ASSERT_LE(s, 100.0);
        prev = s;
    }
}

TEST(Patient, BaselineIsStable) {
    Patient p{PatientParameters{}};
    for (int i = 0; i < 1200; ++i) p.step(0.5);
    EXPECT_NEAR(p.spo2().as_percent(), 97.0, 1.0);
    EXPECT_NEAR(p.resp_rate().as_per_minute(), 14.0, 0.5);
    EXPECT_NEAR(p.etco2().as_mmhg(), 36.0, 2.0);
    EXPECT_NEAR(p.heart_rate().as_bpm(), 76.0, 2.0);
    EXPECT_FALSE(p.is_apneic());
    EXPECT_NEAR(p.respiratory_drive(), 1.0, 0.05);
}

TEST(Patient, StepValidation) {
    Patient p{PatientParameters{}};
    EXPECT_THROW(p.step(0.0), std::invalid_argument);
    EXPECT_THROW(p.step(-0.5), std::invalid_argument);
    EXPECT_THROW(p.set_infusion_rate(InfusionRate::mg_per_hour(-1)),
                 std::invalid_argument);
}

TEST(Patient, OpioidDepressesRespiration) {
    Patient p{PatientParameters{}};
    const double rr0 = p.resp_rate().as_per_minute();
    p.bolus(Dose::mg(1.5));
    for (int i = 0; i < 1200; ++i) p.step(0.5);  // 10 min
    EXPECT_LT(p.resp_rate().as_per_minute(), rr0);
    EXPECT_GT(p.paco2_mmhg(), 40.0);
}

TEST(Patient, MassiveOverdoseCausesApneaAndDesaturation) {
    Patient p{nominal_parameters(Archetype::kOpioidSensitive)};
    p.bolus(Dose::mg(8.0));
    bool saw_apnea = false;
    for (int i = 0; i < 2400; ++i) {  // 20 min
        p.step(0.5);
        saw_apnea = saw_apnea || p.is_apneic();
    }
    EXPECT_TRUE(saw_apnea);
    EXPECT_LT(p.spo2().as_percent(), 85.0);
    // Capnometer shows no waveform during apnea.
    if (p.is_apneic()) {
        EXPECT_EQ(p.etco2().as_mmhg(), 0.0);
    }
}

TEST(Patient, RecoversAfterDrugClears) {
    Patient p{nominal_parameters(Archetype::kTypicalAdult)};
    p.bolus(Dose::mg(2.0));
    for (int i = 0; i < 1200; ++i) p.step(0.5);  // depressed
    const double depressed_rr = p.resp_rate().as_per_minute();
    for (int i = 0; i < 2 * 7200; ++i) p.step(0.5);  // 2 h washout
    EXPECT_GT(p.resp_rate().as_per_minute(), depressed_rr);
    EXPECT_GT(p.spo2().as_percent(), 94.0);
}

TEST(Patient, DoseResponseMonotoneAcrossPatients) {
    // Bigger sustained infusion => lower minimum SpO2.
    double prev_min = 101.0;
    for (double rate : {0.0, 3.0, 8.0, 20.0}) {
        Patient p{nominal_parameters(Archetype::kTypicalAdult)};
        p.set_infusion_rate(InfusionRate::mg_per_hour(rate));
        double min_spo2 = 101.0;
        for (int i = 0; i < 7200; ++i) {
            p.step(0.5);
            min_spo2 = std::min(min_spo2, p.spo2().as_percent());
        }
        EXPECT_LE(min_spo2, prev_min + 1e-9);
        prev_min = min_spo2;
    }
}

TEST(Patient, MechanicalVentilationOverridesDrive) {
    Patient p{nominal_parameters(Archetype::kOpioidSensitive)};
    p.bolus(Dose::mg(8.0));  // would cause apnea
    p.set_mechanical_ventilation(
        MechanicalVentilation{RespRate::per_minute(12.0), 500.0});
    for (int i = 0; i < 2400; ++i) p.step(0.5);
    EXPECT_TRUE(p.on_ventilator());
    EXPECT_FALSE(p.is_apneic());
    EXPECT_NEAR(p.resp_rate().as_per_minute(), 12.0, 0.1);
    EXPECT_GT(p.spo2().as_percent(), 90.0);
}

TEST(Patient, PausedVentilatorCausesApnea) {
    Patient p{PatientParameters{}};
    p.set_mechanical_ventilation(
        MechanicalVentilation{RespRate::per_minute(0.0), 0.0});
    for (int i = 0; i < 120; ++i) p.step(0.5);
    EXPECT_TRUE(p.is_apneic());
    // Resume restores breathing.
    p.set_mechanical_ventilation(
        MechanicalVentilation{RespRate::per_minute(12.0), 500.0});
    for (int i = 0; i < 120; ++i) p.step(0.5);
    EXPECT_FALSE(p.is_apneic());
}

TEST(Patient, HypoxiaCausesTachycardiaThenBradycardia) {
    Patient p{nominal_parameters(Archetype::kOpioidSensitive)};
    const double hr0 = p.heart_rate().as_bpm();
    p.bolus(Dose::mg(3.0));
    double max_hr = 0.0, min_hr = 1e9;
    for (int i = 0; i < 4800; ++i) {
        p.step(0.5);
        max_hr = std::max(max_hr, p.heart_rate().as_bpm());
        min_hr = std::min(min_hr, p.heart_rate().as_bpm());
    }
    EXPECT_GT(max_hr, hr0 + 3.0);  // compensatory tachycardia occurred
}

TEST(Archetypes, AllValidateAndAreDistinct) {
    for (const auto a : all_archetypes()) {
        const auto p = nominal_parameters(a);
        EXPECT_NO_THROW(p.validate());
        EXPECT_EQ(p.label, std::string{to_string(a)});
    }
    EXPECT_LT(nominal_parameters(Archetype::kOpioidSensitive).pd.ec50_ng_ml,
              nominal_parameters(Archetype::kTypicalAdult).pd.ec50_ng_ml);
    EXPECT_GT(nominal_parameters(Archetype::kOpioidTolerant).pd.ec50_ng_ml,
              nominal_parameters(Archetype::kTypicalAdult).pd.ec50_ng_ml);
}

TEST(Archetypes, SensitivityOrderingUnderSameDose) {
    auto min_spo2_for = [](Archetype a) {
        Patient p{nominal_parameters(a)};
        p.bolus(Dose::mg(2.5));
        double m = 101.0;
        for (int i = 0; i < 7200; ++i) {
            p.step(0.5);
            m = std::min(m, p.spo2().as_percent());
        }
        return m;
    };
    EXPECT_LT(min_spo2_for(Archetype::kOpioidSensitive),
              min_spo2_for(Archetype::kTypicalAdult));
    EXPECT_LE(min_spo2_for(Archetype::kTypicalAdult),
              min_spo2_for(Archetype::kOpioidTolerant) + 1e-9);
}

TEST(Population, SamplingIsDeterministicGivenStream) {
    mcps::sim::RngStream r1{42, "pop"}, r2{42, "pop"};
    const auto a = sample_patient(Archetype::kTypicalAdult, r1);
    const auto b = sample_patient(Archetype::kTypicalAdult, r2);
    EXPECT_EQ(a.pk.v1_liters, b.pk.v1_liters);
    EXPECT_EQ(a.pd.ec50_ng_ml, b.pd.ec50_ng_ml);
}

TEST(Population, SamplesValidateAndVary) {
    mcps::sim::RngStream r{7, "pop"};
    const auto pop = sample_population(Archetype::kElderly, 50, r);
    ASSERT_EQ(pop.size(), 50u);
    mcps::sim::RunningStats ec50;
    for (const auto& p : pop) {
        EXPECT_NO_THROW(p.validate());
        ec50.add(p.pd.ec50_ng_ml);
    }
    EXPECT_GT(ec50.stddev(), 1.0);  // real spread
    // Median near nominal.
    EXPECT_NEAR(ec50.mean(), nominal_parameters(Archetype::kElderly).pd.ec50_ng_ml,
                10.0);
}

TEST(Population, ZeroVariabilityReturnsNominal) {
    mcps::sim::RngStream r{7, "pop"};
    VariabilitySpec var;
    var.cv_pk = 0.0;
    var.cv_pd = 0.0;
    var.cv_resp = 0.0;
    const auto p = sample_patient(Archetype::kTypicalAdult, r, var);
    const auto nom = nominal_parameters(Archetype::kTypicalAdult);
    EXPECT_DOUBLE_EQ(p.pd.ec50_ng_ml, nom.pd.ec50_ng_ml);
    EXPECT_DOUBLE_EQ(p.pk.v1_liters, nom.pk.v1_liters);
}

TEST(DemandModel, PainFallsWithAnalgesia) {
    DemandModel d{DemandParameters{}, mcps::sim::RngStream{1, "d"}};
    EXPECT_NEAR(d.pain(Concentration::zero()), 6.5, 1e-12);
    EXPECT_LT(d.pain(Concentration::ng_per_ml(50.0)), 3.0);
    EXPECT_GT(d.pain(Concentration::ng_per_ml(50.0)), 0.0);
}

TEST(DemandModel, SedationSuppressesPresses) {
    DemandParameters params;
    DemandModel d{params, mcps::sim::RngStream{1, "d"}};
    // Deeply sedated: never presses regardless of pain.
    for (int i = 0; i < 10000; ++i) {
        ASSERT_FALSE(d.poll_press(1.0, Concentration::zero(), 0.9));
    }
}

TEST(DemandModel, PainDrivesPressRate) {
    DemandParameters params;
    DemandModel d{params, mcps::sim::RngStream{1, "d"}};
    int presses = 0;
    for (int i = 0; i < 3600 * 10; ++i) {  // 10 h in 1 s steps, pain 6.5
        presses += d.poll_press(1.0, Concentration::zero(), 0.0) ? 1 : 0;
    }
    // Expected ~ 18 * 0.65 = 11.7 presses/hour.
    EXPECT_NEAR(presses / 10.0, 11.7, 3.0);
    // No presses when pain is fully relieved.
    DemandModel d2{params, mcps::sim::RngStream{2, "d"}};
    for (int i = 0; i < 10000; ++i) {
        ASSERT_FALSE(
            d2.poll_press(1.0, Concentration::ng_per_ml(1000.0), 0.0));
    }
}

TEST(DemandModel, ProxyIgnoresSedation) {
    DemandParameters params;
    params.proxy_presses = true;
    DemandModel d{params, mcps::sim::RngStream{3, "d"}};
    int presses = 0;
    for (int i = 0; i < 3600 * 10; ++i) {
        presses += d.poll_press(1.0, Concentration::ng_per_ml(1000.0), 0.95)
                       ? 1
                       : 0;
    }
    EXPECT_NEAR(presses / 10.0, params.proxy_rate_per_hour, 2.5);
}

// ------------------------------------------------ scalar factor cache ----

/// The scalar model with every factor computed where it is used, as
/// Patient::step did before it cached pow(ec50, gamma) and the four
/// 1 - exp(-dt / tau) factors. The ventilator path is left out: the
/// cache does not touch it.
struct UncachedPatient {
    explicit UncachedPatient(const PatientParameters& p)
        : params{p},
          pk{p.pk},
          rr{p.resp.baseline_rr_per_min},
          tidal{p.resp.baseline_tidal_ml},
          paco2{p.resp.baseline_paco2_mmhg},
          hr{p.cardio.baseline_hr_bpm} {
        pao2 = p.resp.fio2 * (760.0 - 47.0) - paco2 / 0.8 -
               p.resp.aa_gradient_mmhg;
        spo2 = severinghaus_spo2(pao2);
    }

    void give_antagonist(double p, double hl) {
        level = 1.0;
        potency = p;
        half_life = hl;
    }

    void step(double dt) {
        const auto& rp = params.resp;
        const auto& cp = params.cardio;
        pk.step(dt, rate);
        if (level > 0) {
            level *= std::exp(-dt * 0.6931471805599453 / half_life);
            if (level < 1e-4) level = 0.0;
        }
        // Respiration.
        PdParameters pd = params.pd;
        pd.ec50_ng_ml *= 1.0 + potency * level;
        double d = 1.0 - hill_effect(pd, pk.effect_site());
        const double co2_excess = std::max(
            0.0, (paco2 - rp.baseline_paco2_mmhg) / rp.baseline_paco2_mmhg);
        d *= 1.0 + rp.co2_gain * co2_excess;
        d = std::clamp(d, 0.0, 1.5);
        drive = d;
        if (d < rp.apnea_drive_threshold) {
            rr = 0.0;
            tidal = 0.0;
        } else {
            const double target_rr = rp.baseline_rr_per_min * std::pow(d, 0.7);
            const double target_vt = rp.baseline_tidal_ml * std::pow(d, 0.3);
            const double alpha = 1.0 - std::exp(-dt / 15.0);
            rr += alpha * (target_rr - rr);
            tidal += alpha * (target_vt - tidal);
        }
        // Gas exchange.
        const double va = rr * std::max(0.0, tidal - rp.deadspace_ml) / 1000.0;
        const double va_base = rp.baseline_rr_per_min *
                               (rp.baseline_tidal_ml - rp.deadspace_ml) / 1000.0;
        if (va < 0.05 * va_base) {
            paco2 += rp.apnea_paco2_rise_mmhg_per_s * dt;
        } else {
            const double eq = std::min(130.0, rp.baseline_paco2_mmhg * va_base / va);
            paco2 += (eq - paco2) * (1.0 - std::exp(-dt / rp.tau_co2_s));
        }
        paco2 = std::clamp(paco2, 15.0, 140.0);
        double pao2_eq = rp.fio2 * (760.0 - 47.0) - paco2 / 0.8 - rp.aa_gradient_mmhg;
        if (va < 0.05 * va_base) pao2_eq = 30.0;
        pao2_eq = std::max(20.0, pao2_eq);
        pao2 += (pao2_eq - pao2) * (1.0 - std::exp(-dt / rp.tau_o2_s));
        spo2 = severinghaus_spo2(pao2);
        // Cardio.
        double target = cp.baseline_hr_bpm;
        const double desat = std::max(0.0, 96.0 - spo2);
        if (spo2 > cp.severe_hypoxia_spo2) {
            target += cp.hypoxia_tachycardia_gain * desat;
        } else {
            target = std::max(25.0, cp.baseline_hr_bpm - 1.5 * desat);
        }
        hr += (target - hr) * (1.0 - std::exp(-dt / cp.tau_hr_s));
    }

    PatientParameters params;
    PkTwoCompartment pk;
    InfusionRate rate{};
    double level = 0.0, potency = 0.0, half_life = 1.0;
    double drive = 1.0, rr, tidal, paco2, pao2 = 0.0, spo2 = 0.0, hr;
};

/// Every state-derived observable, compared bit for bit.
void expect_same(const Patient& p, const UncachedPatient& r,
                 const std::string& when) {
    EXPECT_EQ(p.respiratory_drive(), r.drive) << when;
    EXPECT_EQ(p.paco2_mmhg(), r.paco2) << when;
    EXPECT_EQ(p.pao2_mmhg(), r.pao2) << when;
    EXPECT_EQ(p.spo2().as_percent(), SpO2::percent_clamped(r.spo2).as_percent())
        << when;
    EXPECT_EQ(p.resp_rate().as_per_minute(),
              RespRate::per_minute_clamped(r.rr).as_per_minute())
        << when;
    EXPECT_EQ(p.heart_rate().as_bpm(), HeartRate::bpm_clamped(r.hr).as_bpm())
        << when;
    EXPECT_EQ(p.antagonist_level(), r.level) << when;
    EXPECT_EQ(p.pk().effect_site().as_ng_per_ml(),
              r.pk.effect_site().as_ng_per_ml())
        << when;
}

/// Steps both, comparing after every step; returns false at the first
/// mismatch so a broken cache reports one failure, not thousands.
bool step_both(Patient& p, UncachedPatient& r, double dt, int steps,
               const std::string& when) {
    for (int i = 0; i < steps; ++i) {
        p.step(dt);
        r.step(dt);
        expect_same(p, r, when + ", step " + std::to_string(i));
        if (::testing::Test::HasFailure()) return false;
    }
    return true;
}

/// Both models under the same opioid load.
void dose_both(Patient& p, UncachedPatient& r, double bolus_mg,
               double infusion_mg_h) {
    p.bolus(Dose::mg(bolus_mg));
    r.pk.bolus(Dose::mg(bolus_mg));
    p.set_infusion_rate(InfusionRate::mg_per_hour(infusion_mg_h));
    r.rate = InfusionRate::mg_per_hour(infusion_mg_h);
}

TEST(PatientFactorCache, DtChangeMidRunRebuildsFactors) {
    for (const Archetype a : all_archetypes()) {
        const std::string who{to_string(a)};
        Patient p{nominal_parameters(a)};
        UncachedPatient r{nominal_parameters(a)};
        dose_both(p, r, 2.0, 1.0);
        ASSERT_TRUE(step_both(p, r, 0.5, 600, who + " dt=0.5"));
        ASSERT_TRUE(step_both(p, r, 0.25, 600, who + " dt=0.25"));
        ASSERT_TRUE(step_both(p, r, 1.0, 300, who + " dt=1"));
        ASSERT_TRUE(step_both(p, r, 0.5, 300, who + " dt=0.5 again"));
        // Alternate every step: each one rebuilds the factors.
        for (int i = 0; i < 200; ++i) {
            ASSERT_TRUE(step_both(p, r, i % 2 == 0 ? 0.1 : 0.7, 1,
                                  who + " alternating"));
        }
    }
}

TEST(PatientFactorCache, AntagonistAfterFactorsAreCachedAndAgain) {
    Patient p{nominal_parameters(Archetype::kOpioidSensitive)};
    UncachedPatient r{nominal_parameters(Archetype::kOpioidSensitive)};
    dose_both(p, r, 4.0, 2.0);
    ASSERT_TRUE(step_both(p, r, 0.5, 800, "before the antagonist"));
    p.give_antagonist(3.0, 120.0);
    r.give_antagonist(3.0, 120.0);
    ASSERT_TRUE(step_both(p, r, 0.5, 200, "antagonist active"));
    EXPECT_GT(p.antagonist_level(), 0.0);
    // Wears off: the level reaches exactly 0 and the cached EC50 term
    // is used again.
    ASSERT_TRUE(step_both(p, r, 0.5, 4000, "antagonist wearing off"));
    EXPECT_EQ(p.antagonist_level(), 0.0);
    p.give_antagonist(1.5, 600.0);
    r.give_antagonist(1.5, 600.0);
    ASSERT_TRUE(step_both(p, r, 0.25, 2000, "second antagonist"));
    EXPECT_GT(p.antagonist_level(), 0.0);
}

TEST(PatientFactorCache, CopiedPatientStepsLikeItsSource) {
    Patient p{nominal_parameters(Archetype::kElderly)};
    UncachedPatient r{nominal_parameters(Archetype::kElderly)};
    dose_both(p, r, 2.5, 1.5);
    ASSERT_TRUE(step_both(p, r, 0.5, 500, "source"));

    Patient copy = p;  // carries the factors built for dt = 0.5
    UncachedPatient copy_ref = r;
    ASSERT_TRUE(step_both(copy, copy_ref, 0.5, 300, "copy, same dt"));
    ASSERT_TRUE(step_both(copy, copy_ref, 0.2, 300, "copy, new dt"));
    ASSERT_TRUE(step_both(p, r, 0.5, 600, "source after the copy"));

    // Assigning over a patient with other parameters and another dt
    // replaces its factors too.
    Patient other{nominal_parameters(Archetype::kTypicalAdult)};
    other.step(0.3);
    other = p;
    UncachedPatient other_ref = r;
    ASSERT_TRUE(step_both(other, other_ref, 0.5, 300, "assigned, same dt"));
    ASSERT_TRUE(step_both(other, other_ref, 0.3, 300, "assigned, dt=0.3"));
}

}  // namespace
