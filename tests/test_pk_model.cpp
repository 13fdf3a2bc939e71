/// \file test_pk_model.cpp
/// \brief Unit + property tests for the two-compartment PK integrator.

#include <gtest/gtest.h>

#include "physio/pk_model.hpp"

namespace {

using namespace mcps::physio;

PkParameters one_compartment() {
    PkParameters p;
    p.k12_per_min = 0.0;
    p.k21_per_min = 0.0;
    return p;
}

TEST(PkParameters, ValidationRejectsBadValues) {
    PkParameters p;
    EXPECT_NO_THROW(p.validate());
    p.v1_liters = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = PkParameters{};
    p.k10_per_min = -0.1;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = PkParameters{};
    p.ke0_per_min = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = PkParameters{};
    p.k12_per_min = -1;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(PkModel, InitialStateIsDrugFree) {
    PkTwoCompartment pk{PkParameters{}};
    EXPECT_EQ(pk.plasma(), Concentration::zero());
    EXPECT_EQ(pk.effect_site(), Concentration::zero());
    EXPECT_EQ(pk.body_burden(), Dose::zero());
}

TEST(PkModel, BolusRaisesPlasmaInstantly) {
    PkTwoCompartment pk{PkParameters{}};
    pk.bolus(Dose::mg(1.6));
    // 1.6 mg in 16 L = 0.1 mg/L = 100 ng/ml.
    EXPECT_NEAR(pk.plasma().as_ng_per_ml(), 100.0, 1e-9);
    EXPECT_NEAR(pk.body_burden().as_mg(), 1.6, 1e-12);
}

TEST(PkModel, NegativeBolusRejected) {
    PkTwoCompartment pk{PkParameters{}};
    EXPECT_THROW(pk.bolus(Dose::mg(-1)), std::invalid_argument);
}

TEST(PkModel, StepArgumentValidation) {
    PkTwoCompartment pk{PkParameters{}};
    EXPECT_THROW(pk.step(0.0, InfusionRate::zero()), std::invalid_argument);
    EXPECT_THROW(pk.step(-1.0, InfusionRate::zero()), std::invalid_argument);
}

TEST(PkModel, MatchesAnalyticOneCompartmentBolus) {
    const auto params = one_compartment();
    PkTwoCompartment pk{params};
    pk.bolus(Dose::mg(2.0));
    double max_rel_err = 0.0;
    for (int i = 0; i < 3600; ++i) {  // one hour at 1 s steps
        pk.step(1.0, InfusionRate::zero());
        const double t = i + 1.0;
        const double expected =
            one_compartment_bolus_analytic(params, Dose::mg(2.0), t)
                .as_ng_per_ml();
        const double got = pk.plasma().as_ng_per_ml();
        if (expected > 1e-6) {
            max_rel_err = std::max(max_rel_err,
                                   std::abs(got - expected) / expected);
        }
    }
    EXPECT_LT(max_rel_err, 1e-8);  // RK4 at these rates is essentially exact
}

TEST(PkModel, InfusionApproachesSteadyState) {
    const auto params = one_compartment();
    PkTwoCompartment pk{params};
    const auto rate = InfusionRate::mg_per_hour(6.0);
    for (int i = 0; i < 12 * 3600; ++i) pk.step(1.0, rate);  // 12 h
    // Css = rate / (k10 * V1) = (6 mg/h) / (0.10/min * 16 L)
    const double css_ng_ml = 6.0 / 60.0 / (0.10 * 16.0) * 1e3;
    EXPECT_NEAR(pk.plasma().as_ng_per_ml(), css_ng_ml, css_ng_ml * 0.001);
}

TEST(PkModel, EffectSiteLagsPlasma) {
    PkTwoCompartment pk{PkParameters{}};
    pk.bolus(Dose::mg(1.0));
    pk.step(1.0, InfusionRate::zero());
    EXPECT_GT(pk.plasma().as_ng_per_ml(), pk.effect_site().as_ng_per_ml());
    // Effect site peaks later, then both decay.
    double peak_ce = 0.0;
    double peak_t = 0.0;
    for (int i = 0; i < 3600; ++i) {
        pk.step(1.0, InfusionRate::zero());
        const double ce = pk.effect_site().as_ng_per_ml();
        if (ce > peak_ce) {
            peak_ce = ce;
            peak_t = i;
        }
    }
    EXPECT_GT(peak_t, 30.0);   // lag of minutes, not seconds
    EXPECT_LT(peak_t, 1200.0); // but well under an hour (fentanyl-like)
    EXPECT_GT(peak_ce, 0.0);
}

TEST(PkModel, MassBalanceHolds) {
    PkTwoCompartment pk{PkParameters{}};
    pk.bolus(Dose::mg(2.0));
    for (int i = 0; i < 7200; ++i) {
        pk.step(1.0, InfusionRate::mg_per_hour(1.0));
    }
    const double delivered = pk.total_delivered().as_mg();
    const double in_body = pk.body_burden().as_mg();
    const double eliminated = pk.total_eliminated().as_mg();
    EXPECT_NEAR(delivered, in_body + eliminated, delivered * 1e-6);
    EXPECT_NEAR(delivered, 2.0 + 2.0, 1e-9);  // bolus + 2 h of 1 mg/h
}

TEST(PkModel, CopyBranchesTrajectory) {
    PkTwoCompartment a{PkParameters{}};
    a.bolus(Dose::mg(1.0));
    PkTwoCompartment b = a;  // branch
    a.step(60.0, InfusionRate::zero());
    b.step(60.0, InfusionRate::mg_per_hour(10.0));
    EXPECT_LT(a.plasma().as_ng_per_ml(), b.plasma().as_ng_per_ml());
}

/// Once no drug enters, the amounts reach exactly zero (after about
/// 550 h here) instead of stalling in subnormal doubles, where every
/// further step runs many times slower and the amount no longer decays.
TEST(PkModel, DrugFreeAmountsReachExactZero) {
    PkTwoCompartment pk{PkParameters{}};
    pk.bolus(Dose::mg(30.0));
    constexpr int kMaxSteps = 600 * 3600;  // 600 h at 1 s steps
    int steps = 0;
    while (steps < kMaxSteps &&
           (pk.body_burden() != Dose::zero() ||
            pk.effect_site() != Concentration::zero())) {
        pk.step(1.0, InfusionRate::zero());
        ++steps;
    }
    EXPECT_LT(steps, kMaxSteps);
    EXPECT_EQ(pk.body_burden(), Dose::zero());
    EXPECT_EQ(pk.plasma(), Concentration::zero());
    EXPECT_EQ(pk.effect_site(), Concentration::zero());
}

/// Property sweep: concentrations never go negative and decay is
/// monotone after input stops, across a parameter grid.
class PkDecayProperty
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(PkDecayProperty, DecaysMonotonicallyAfterInputStops) {
    const auto [k10, k12, ke0] = GetParam();
    PkParameters p;
    p.k10_per_min = k10;
    p.k12_per_min = k12;
    p.ke0_per_min = ke0;
    PkTwoCompartment pk{p};
    pk.bolus(Dose::mg(1.0));
    for (int i = 0; i < 600; ++i) pk.step(1.0, InfusionRate::zero());

    double prev_total = pk.body_burden().as_mg();
    for (int i = 0; i < 1800; ++i) {
        pk.step(1.0, InfusionRate::zero());
        const double total = pk.body_burden().as_mg();
        ASSERT_GE(total, 0.0);
        ASSERT_LE(total, prev_total + 1e-12);
        ASSERT_GE(pk.plasma().as_ng_per_ml(), 0.0);
        ASSERT_GE(pk.effect_site().as_ng_per_ml(), 0.0);
        prev_total = total;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, PkDecayProperty,
    ::testing::Combine(::testing::Values(0.05, 0.10, 0.20),
                       ::testing::Values(0.0, 0.15, 0.35),
                       ::testing::Values(0.1, 0.35, 0.7)));

}  // namespace
