/// \file test_drug_library.cpp
/// \brief Tests for the drug library, prescription checker and the
/// audited programming session (requirement R7).

#include <gtest/gtest.h>

#include "devices/drug_library.hpp"
#include "net/bus.hpp"
#include "physio/population.hpp"
#include "sim/trace.hpp"

namespace {

using namespace mcps;
using namespace mcps::sim::literals;
using devices::check_prescription;
using devices::DrugEntry;
using devices::DrugLibrary;
using devices::Prescription;
using devices::ProgrammingSession;
using physio::Dose;
using physio::InfusionRate;

Prescription within_soft() {
    Prescription rx;
    rx.basal = InfusionRate::mg_per_hour(0.5);
    rx.bolus_dose = Dose::mg(0.5);
    rx.lockout = 10_min;
    rx.max_hourly = Dose::mg(5.0);
    return rx;
}

TEST(DrugEntry, ValidationOrdersSoftInsideHard) {
    DrugEntry e;
    e.name = "x";
    EXPECT_NO_THROW(e.validate());
    e.soft_max_bolus = Dose::mg(2.0);  // above hard 1.0
    EXPECT_THROW(e.validate(), std::invalid_argument);
    e = DrugEntry{};
    e.name = "x";
    e.soft_min_lockout = 2_min;  // below hard min 5
    EXPECT_THROW(e.validate(), std::invalid_argument);
    e = DrugEntry{};
    e.name = "";
    EXPECT_THROW(e.validate(), std::invalid_argument);
}

TEST(Checker, CleanPrescriptionPasses) {
    DrugEntry e;
    e.name = "opioid";
    const auto c = check_prescription(within_soft(), e);
    EXPECT_TRUE(c.hard.empty());
    EXPECT_TRUE(c.soft.empty());
    EXPECT_TRUE(c.acceptable(false));
}

TEST(Checker, SoftViolationNeedsOverride) {
    DrugEntry e;
    e.name = "opioid";
    Prescription rx = within_soft();
    rx.bolus_dose = Dose::mg(0.8);  // > soft 0.6, <= hard 1.0
    const auto c = check_prescription(rx, e);
    EXPECT_TRUE(c.hard.empty());
    ASSERT_EQ(c.soft.size(), 1u);
    EXPECT_EQ(c.soft[0].field, "bolus_dose");
    EXPECT_FALSE(c.acceptable(false));
    EXPECT_TRUE(c.acceptable(true));
}

TEST(Checker, HardViolationNeverAcceptable) {
    DrugEntry e;
    e.name = "opioid";
    Prescription rx = within_soft();
    rx.max_hourly = Dose::mg(9.0);  // > hard 8.0
    rx.bolus_dose = Dose::mg(1.0);
    const auto c = check_prescription(rx, e);
    ASSERT_FALSE(c.hard.empty());
    EXPECT_EQ(c.hard[0].field, "max_hourly");
    EXPECT_FALSE(c.acceptable(true));  // override cannot beat hard limits
}

TEST(Checker, ShortLockoutFlagged) {
    DrugEntry e;
    e.name = "opioid";
    Prescription rx = within_soft();
    rx.lockout = 6_min;  // >= hard 5, < soft 8
    auto c = check_prescription(rx, e);
    EXPECT_TRUE(c.hard.empty());
    ASSERT_EQ(c.soft.size(), 1u);
    EXPECT_EQ(c.soft[0].field, "lockout");
    rx.lockout = 4_min;  // < hard 5
    c = check_prescription(rx, e);
    ASSERT_FALSE(c.hard.empty());
}

TEST(Checker, MultipleViolationsAllReported) {
    DrugEntry e;
    e.name = "opioid";
    Prescription rx;
    rx.basal = InfusionRate::mg_per_hour(3.0);  // > hard 2.0
    rx.bolus_dose = Dose::mg(0.9);              // > soft 0.6
    rx.lockout = 4_min;                         // < hard 5
    rx.max_hourly = Dose::mg(7.0);              // > soft 6
    const auto c = check_prescription(rx, e);
    EXPECT_EQ(c.hard.size(), 2u);  // basal + lockout
    EXPECT_EQ(c.soft.size(), 4u);  // basal, bolus, hourly, lockout
}

TEST(Library, AddFindDuplicates) {
    DrugLibrary lib;
    DrugEntry e;
    e.name = "a";
    lib.add(e);
    EXPECT_THROW(lib.add(e), std::invalid_argument);
    EXPECT_NE(lib.find("a"), nullptr);
    EXPECT_EQ(lib.find("b"), nullptr);
    EXPECT_EQ(lib.size(), 1u);
}

TEST(Library, DefaultOpioidLibraryIsConsistent) {
    const auto lib = devices::build_default_opioid_library();
    EXPECT_GE(lib.size(), 2u);
    ASSERT_NE(lib.find("synthetic-opioid"), nullptr);
    ASSERT_NE(lib.find("synthetic-opioid-elderly"), nullptr);
    // The elderly entry is uniformly stricter.
    const auto* adult = lib.find("synthetic-opioid");
    const auto* old = lib.find("synthetic-opioid-elderly");
    EXPECT_LT(old->hard_max_hourly, adult->hard_max_hourly);
    EXPECT_GT(old->hard_min_lockout, adult->hard_min_lockout);
}

class ProgrammingTest : public ::testing::Test {
protected:
    ProgrammingTest()
        : sim_{42},
          bus_{sim_, net::ChannelParameters::ideal()},
          patient_{physio::nominal_parameters(physio::Archetype::kTypicalAdult)},
          ctx_{sim_, bus_, trace_, events_},
          pump_{ctx_, "pump1", patient_, within_soft()},
          library_{devices::build_default_opioid_library()},
          session_{library_, sim_} {}

    sim::Simulation sim_;
    net::Bus bus_;
    sim::TraceRecorder trace_;
    physio::Patient patient_;
    mcps::obs::EventLog events_;
    devices::DeviceContext ctx_;
    devices::GpcaPump pump_;
    DrugLibrary library_;
    ProgrammingSession session_;
};

TEST_F(ProgrammingTest, AcceptsCleanPrescriptionOnIdlePump) {
    const auto c =
        session_.program(pump_, "synthetic-opioid", within_soft(), false);
    EXPECT_TRUE(c.acceptable(false));
    ASSERT_EQ(session_.records().size(), 1u);
    EXPECT_TRUE(session_.records()[0].accepted);
    EXPECT_EQ(pump_.prescription().bolus_dose, Dose::mg(0.5));
}

TEST_F(ProgrammingTest, RejectsUnknownDrug) {
    const auto c = session_.program(pump_, "mystery-juice", within_soft(), true);
    EXPECT_FALSE(c.acceptable(true));
    ASSERT_EQ(c.hard.size(), 1u);
    EXPECT_EQ(c.hard[0].field, "drug");
    EXPECT_FALSE(session_.records()[0].accepted);
}

TEST_F(ProgrammingTest, RejectsOnRunningPump) {
    pump_.start();
    sim_.run_for(3_s);  // through self-test, now infusing
    const auto c =
        session_.program(pump_, "synthetic-opioid", within_soft(), false);
    EXPECT_FALSE(c.acceptable(false));
    bool pump_state_violation = false;
    for (const auto& v : c.hard) {
        pump_state_violation |= v.field == "pump-state";
    }
    EXPECT_TRUE(pump_state_violation);
}

TEST_F(ProgrammingTest, SoftOverrideIsAudited) {
    Prescription rx = within_soft();
    rx.bolus_dose = Dose::mg(0.8);
    // Without override: rejected.
    auto c = session_.program(pump_, "synthetic-opioid", rx, false);
    EXPECT_FALSE(session_.records().back().accepted);
    // With override: accepted and recorded as overridden.
    c = session_.program(pump_, "synthetic-opioid", rx, true);
    EXPECT_TRUE(session_.records().back().accepted);
    EXPECT_TRUE(session_.records().back().overridden);
    EXPECT_EQ(session_.records().back().soft_violations, 1u);
    EXPECT_EQ(pump_.prescription().bolus_dose, Dose::mg(0.8));
}

TEST_F(ProgrammingTest, StricterEntryRejectsWhatAdultEntryAllows) {
    Prescription rx = within_soft();
    rx.max_hourly = Dose::mg(5.0);
    rx.bolus_dose = Dose::mg(0.5);
    const auto adult =
        session_.program(pump_, "synthetic-opioid", rx, false);
    EXPECT_TRUE(adult.acceptable(false));
    const auto elderly =
        session_.program(pump_, "synthetic-opioid-elderly", rx, true);
    // 5.0 mg/h hourly cap equals the elderly hard cap, bolus 0.5 > soft
    // 0.4 (override) — acceptable with override; tighten further:
    Prescription hot = rx;
    hot.max_hourly = Dose::mg(6.0);  // > elderly hard 5.0
    const auto rejected =
        session_.program(pump_, "synthetic-opioid-elderly", hot, true);
    EXPECT_TRUE(elderly.acceptable(true));
    EXPECT_FALSE(rejected.acceptable(true));
}

}  // namespace
