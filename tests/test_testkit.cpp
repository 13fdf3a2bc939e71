/// \file test_testkit.cpp
/// \brief Tests for the fuzzing testkit: fault plans and injection,
/// invariants, repro serialization, deterministic replay, and shrinking,
/// for the pca, x-ray and hospital workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "net/net.hpp"
#include "sim/simulation.hpp"
#include "testkit/testkit.hpp"

namespace {

using namespace mcps;
using namespace mcps::sim::literals;
using namespace mcps::testkit;
using sim::SimDuration;
using sim::SimTime;

TEST(FaultPlan, WithoutRemovesExactlyOneEvent) {
    FaultPlan plan;
    plan.events.push_back({FaultKind::kOutage, 10_s, 5_s, "a", 0.0});
    plan.events.push_back({FaultKind::kLossBurst, 20_s, 5_s, "b", 0.7});
    plan.events.push_back({FaultKind::kOxiDropout, 30_s, 5_s, "", 0.0});
    const FaultPlan p = plan.without(1);
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p.events[0].kind, FaultKind::kOutage);
    EXPECT_EQ(p.events[1].kind, FaultKind::kOxiDropout);
}

TEST(FaultPlan, KindNamesRoundTrip) {
    for (auto k : {FaultKind::kOutage, FaultKind::kPartition,
                   FaultKind::kLossBurst, FaultKind::kDelaySpike,
                   FaultKind::kDupBurst, FaultKind::kReorderBurst,
                   FaultKind::kCorruptBurst, FaultKind::kOxiDropout,
                   FaultKind::kCapDropout, FaultKind::kPumpCmdLoss}) {
        const auto back = fault_kind_from(to_string(k));
        ASSERT_TRUE(back.has_value()) << to_string(k);
        EXPECT_EQ(*back, k);
    }
    EXPECT_FALSE(fault_kind_from("nonsense").has_value());
}

TEST(FaultInjector, LossBurstConfinedToWindow) {
    sim::Simulation s;
    net::Bus bus{s, net::ChannelParameters::ideal()};
    int got = 0;
    bus.subscribe("sub", "t", [&](const net::Message&) { ++got; });

    FaultPlan plan;
    plan.events.push_back({FaultKind::kLossBurst, 10_s, 10_s, "sub", 1.0});
    obs::EventLog events;
    FaultInjector injector{s, bus, events};
    injector.arm(plan);
    EXPECT_EQ(injector.armed(), 1u);
    EXPECT_EQ(injector.skipped(), 0u);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events.events()[0].kind, obs::EventKind::kFaultInject);
    EXPECT_EQ(events.symbol(events.events()[0].detail), "loss_burst");

    // One message per second for 30 s: only the burst window is lost.
    for (int i = 0; i < 30; ++i) {
        s.run_until(SimTime::origin() + SimDuration::seconds(i));
        bus.publish("p", "t", net::StatusPayload{});
    }
    s.run_all();
    EXPECT_EQ(got, 20);
}

TEST(FaultInjector, DeviceFaultsSkippedWithoutDevices) {
    sim::Simulation s;
    net::Bus bus{s, net::ChannelParameters::ideal()};
    FaultPlan plan;
    plan.events.push_back({FaultKind::kOxiDropout, 10_s, 5_s, "", 0.0});
    plan.events.push_back({FaultKind::kCapDropout, 20_s, 5_s, "", 0.0});
    plan.events.push_back({FaultKind::kOutage, 30_s, 5_s, "x", 0.0});
    obs::EventLog events;
    FaultInjector injector{s, bus, events};
    injector.arm(plan);
    EXPECT_EQ(injector.armed(), 1u);
    EXPECT_EQ(injector.skipped(), 2u);
    EXPECT_EQ(events.size(), 1u);  // a skipped fault records nothing
}

/// Plans built in code meet the repro file's magnitude domains: arm()
/// refuses an out-of-domain event before arming anything.
TEST(FaultInjector, ArmRefusesMagnitudesOutsideTheirKindsDomain) {
    for (const FaultEvent& bad : std::vector<FaultEvent>{
             {FaultKind::kLossBurst, 1_s, 1_s, "pump1", 5.0},
             {FaultKind::kDupBurst, 1_s, 1_s, "pump1", -1.0},
             {FaultKind::kDelaySpike, 1_s, 1_s, "pump1", 1e16},
             {FaultKind::kDelaySpike, 1_s, 1_s, "pump1", -0.5},
         }) {
        sim::Simulation s;
        net::Bus bus{s, net::ChannelParameters::ideal()};
        FaultPlan plan;
        plan.events.push_back({FaultKind::kLossBurst, 1_s, 1_s, "pump1", 1.0});
        plan.events.push_back(bad);
        obs::EventLog events;
        FaultInjector injector{s, bus, events};
        EXPECT_THROW(injector.arm(plan), std::invalid_argument)
            << to_string(bad.kind) << " mag " << bad.magnitude;
        EXPECT_EQ(injector.armed(), 0u);
        EXPECT_EQ(s.events_pending(), 0u);
        EXPECT_EQ(events.size(), 0u);
    }
}

TEST(Repro, TextRoundTripPreservesEverything) {
    Repro r;
    r.kind = WorkloadKind::kPca;
    r.seed = 0xDEADBEEF12345678ULL;
    r.index = 77;
    r.weakened = true;
    r.fingerprint = 0x0123456789ABCDEFULL;
    r.faults.events.push_back(
        {FaultKind::kDelaySpike, 61_s, 17_s, "pca_interlock", 1234.5});
    r.faults.events.push_back(
        {FaultKind::kLossBurst, 200_s, 30_s, "pump1", 0.30000000000000004});

    const Repro back = repro_from_text(to_text(r));
    EXPECT_EQ(back.kind, r.kind);
    EXPECT_EQ(back.seed, r.seed);
    EXPECT_EQ(back.index, r.index);
    EXPECT_EQ(back.weakened, r.weakened);
    EXPECT_EQ(back.fingerprint, r.fingerprint);
    ASSERT_EQ(back.faults.size(), 2u);
    EXPECT_EQ(back.faults.events[0].kind, FaultKind::kDelaySpike);
    EXPECT_EQ(back.faults.events[0].at, 61_s);
    EXPECT_EQ(back.faults.events[0].duration, 17_s);
    EXPECT_EQ(back.faults.events[0].target, "pca_interlock");
    EXPECT_DOUBLE_EQ(back.faults.events[0].magnitude, 1234.5);
    // %.17g round-trips doubles exactly, ulp included.
    EXPECT_EQ(back.faults.events[1].magnitude, 0.30000000000000004);

    // A hospital repro: no spec line and no fault plan, since the spec
    // is a pure function of (seed, index, weakened).
    Repro h;
    h.kind = WorkloadKind::kHospital;
    h.seed = 42;
    h.index = 2;
    h.weakened = true;
    h.fingerprint = 0x2e3d61c6086b2ce4ULL;
    EXPECT_EQ(to_text(h),
              "mcps-repro v2\nkind=hospital\nseed=42\nindex=2\n"
              "weakened=1\nfingerprint=0x2e3d61c6086b2ce4\n");
    const Repro hback = repro_from_text(to_text(h));
    EXPECT_EQ(hback.kind, WorkloadKind::kHospital);
    EXPECT_EQ(hback.seed, h.seed);
    EXPECT_EQ(hback.index, h.index);
    EXPECT_EQ(hback.weakened, h.weakened);
    EXPECT_EQ(hback.fingerprint, h.fingerprint);
    EXPECT_TRUE(hback.faults.empty());
}

TEST(Repro, MalformedTextThrows) {
    EXPECT_THROW(repro_from_text(""), std::runtime_error);
    EXPECT_THROW(repro_from_text("not a repro\n"), std::runtime_error);
    EXPECT_THROW(repro_from_text("mcps-repro v2\nkind=laser\n"),
                 std::runtime_error);
    EXPECT_THROW(repro_from_text("mcps-repro v2\nseed=banana\n"),
                 std::runtime_error);
    EXPECT_THROW(
        repro_from_text("mcps-repro v2\nfault kind=warp at_us=1 dur_us=1\n"),
        std::runtime_error);
    EXPECT_THROW(repro_from_text("mcps-repro v2\nfault at_us=1\n"),
                 std::runtime_error);
}

/// The error text of repro_from_text(\p text), or "" when it parses.
std::string repro_error(const std::string& text) {
    try {
        (void)repro_from_text(text);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

/// A v1 file's fingerprint predates the event-stream fold, so it could
/// only replay as a mismatch: it is refused, by version.
TEST(Repro, VersionOneIsRejectedByName) {
    const std::string error = repro_error("mcps-repro v1\nkind=pca\nseed=1\n");
    EXPECT_EQ(error.rfind("repro: unsupported version 'v1'", 0), 0u) << error;
    EXPECT_NE(error.find("'v2'"), std::string::npos) << error;
    EXPECT_EQ(to_text(Repro{}).rfind("mcps-repro v2\n", 0), 0u);
}

TEST(Repro, StrictFieldsRejectWhatTheyCannotRoundTrip) {
    const std::string head = "mcps-repro v2\n";
    const std::string fault = "fault kind=outage target=pump1 ";
    for (const std::string& body : std::vector<std::string>{
             "weakened=true\n", "weakened=2\n", "weakened=\n",
             "seed=-1\n", "seed=12abc\n", "seed=+5\n", "seed=0x10\n",
             "seed=18446744073709551616\n", "index= 3\n",
             "fingerprint=12\n", "fingerprint=0x\n",
             "fingerprint=0x10000000000000000\n", "fingerprint=0xfg\n",
             fault + "at_us=-1 dur_us=1 mag=0\n",
             fault + "at_us=1 dur_us=-5 mag=0\n",
             fault + "at_us=9223372036854775808 dur_us=0 mag=0\n",
             fault + "at_us=9223372036854775807 dur_us=1 mag=0\n",
             fault + "at_us=1 dur_us=1 mag=x\n",
             fault + "at_us=1 dur_us=1 mag=nan\n",
             fault + "at_us=1 dur_us=1 mag=inf\n",
             fault + "at_us=1 dur_us=1 mag=-inf\n",
             fault + "at_us=1 dur_us=1 mag=1e999\n",
             fault + "at_us=1 dur_us=1 mag=\n",
             // Each kind's magnitude domain.
             "fault kind=loss_burst at_us=1 dur_us=1 mag=5 target=pump1\n",
             "fault kind=loss_burst at_us=1 dur_us=1 mag=-1 target=pump1\n",
             "fault kind=dup_burst at_us=1 dur_us=1 mag=1.0000000000000002 "
             "target=pump1\n",
             "fault kind=reorder_burst at_us=1 dur_us=1 mag=-0.5 "
             "target=pump1\n",
             "fault kind=corrupt_burst at_us=1 dur_us=1 mag=2 target=pump1\n",
             "fault kind=delay_spike at_us=1 dur_us=1 mag=-1 target=pump1\n",
             "fault kind=delay_spike at_us=1 dur_us=1 mag=9223372036854776 "
             "target=pump1\n",
             "fault kind=delay_spike at_us=1 dur_us=1 mag=1e300 "
             "target=pump1\n",
         }) {
        const std::string error = repro_error(head + body);
        EXPECT_EQ(error.rfind("repro: malformed file: ", 0), 0u)
            << body << " -> '" << error << "'";
    }
    // The largest window that still ends inside SimTime parses.
    const Repro edge = repro_from_text(
        head + fault + "at_us=9223372036854775806 dur_us=1 mag=0.5\n");
    ASSERT_EQ(edge.faults.size(), 1u);
    EXPECT_EQ(edge.faults.events[0].duration.ticks(), 1);
    // The edges of each magnitude domain parse: probabilities 0 and 1,
    // and the largest delay spike whose microseconds fit int64.
    const Repro domains = repro_from_text(
        head +
        "fault kind=loss_burst at_us=1 dur_us=1 mag=0 target=pump1\n"
        "fault kind=corrupt_burst at_us=1 dur_us=1 mag=1 target=pump1\n"
        "fault kind=delay_spike at_us=1 dur_us=1 mag=9223372036854774 "
        "target=pump1\n");
    ASSERT_EQ(domains.faults.size(), 3u);
    EXPECT_EQ(domains.faults.events[2].magnitude, 9223372036854774.0);
}

/// 2000 seeded byte mutants of \p text: each either throws a "repro:"
/// error or parses to a Repro whose text is a fixed point of parse ->
/// to_text.
void expect_mutants_rejected_or_fixed(const std::string& text,
                                      std::mt19937_64& rng) {
    constexpr char kInteresting[] = "=-+0123456789xXabcdef \n.eEinfa\t\r";
    std::size_t rejected = 0, parsed = 0;
    for (int iter = 0; iter < 2000; ++iter) {
        std::string doc = text;
        const int mutations = 1 + static_cast<int>(rng() % 3);
        for (int m = 0; m < mutations && !doc.empty(); ++m) {
            const std::size_t at = rng() % doc.size();
            const char pick = kInteresting[rng() % (sizeof kInteresting - 1)];
            switch (rng() % 5) {
                case 0: doc[at] = static_cast<char>(rng() & 0xFF); break;
                case 1: doc[at] = pick; break;
                case 2: doc.insert(at, 1, pick); break;
                case 3: doc.erase(at, 1 + rng() % 4); break;
                default: doc.insert(at, doc.substr(rng() % doc.size(), 8));
            }
        }
        std::optional<Repro> r;
        try {
            r = repro_from_text(doc);
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string_view{e.what()}.substr(0, 7), "repro: ")
                << e.what();
            ++rejected;
            continue;
        }
        ++parsed;
        const std::string once = to_text(*r);
        std::string twice;
        try {
            twice = to_text(repro_from_text(once));
        } catch (const std::runtime_error& e) {
            ADD_FAILURE() << "to_text output rejected: " << e.what() << "\n"
                          << once;
            continue;
        }
        EXPECT_EQ(twice, once) << "mutant:\n" << doc;
    }
    EXPECT_GT(rejected, 0u) << text;
    EXPECT_GT(parsed, 0u) << text;
}

/// ROADMAP's repro mutation sweep: 2000 seeded byte mutants of a real
/// shrunk pca repro, and 2000 of a real hospital hazard repro, each
/// either throw a "repro:" error or parse to a Repro whose text is a
/// fixed point of parse -> to_text.
TEST(Repro, MutationSweepRejectsOrReachesAFixedPoint) {
    // A generated plan holding an oximeter dropout, shrunk against an
    // invariant that only the dropout violates: the other faults go,
    // the dropout stays.
    InvariantChecker dropout_free;
    dropout_free.add_pca(
        "test/oximeter-never-drops-out",
        [](const PcaCheckContext& ctx, std::vector<Violation>& out) {
            const auto* dropout = ctx.trace.find("testkit/oxi_dropout");
            if (dropout != nullptr && dropout->stats().max() > 0.5) {
                out.push_back({"test/oximeter-never-drops-out", 0.0, ""});
            }
        });
    const ScenarioGenerator gen{42};
    const auto worth_shrinking = [](const FaultPlan& plan) {
        return plan.size() > 1 &&
               std::any_of(plan.events.begin(), plan.events.end(),
                           [](const FaultEvent& e) {
                               return e.kind == FaultKind::kOxiDropout;
                           });
    };
    Repro found;
    found.seed = 42;
    while (found.index < 200 &&
           !worth_shrinking(gen.pca(found.index).faults)) {
        ++found.index;
    }
    found.faults = gen.pca(found.index).faults;
    const Repro minimal = shrink(found, dropout_free);
    ASSERT_FALSE(minimal.faults.empty());
    ASSERT_LT(minimal.faults.size(), found.faults.size());

    FuzzOptions hospital;
    hospital.scenarios = 1;
    hospital.hospital = true;
    hospital.weakened = true;
    const FuzzOutcome hazard = run_fuzz(hospital);
    ASSERT_EQ(hazard.failures.size(), 1u);

    std::mt19937_64 rng{20261017};
    expect_mutants_rejected_or_fixed(to_text(minimal), rng);
    expect_mutants_rejected_or_fixed(to_text(hazard.failures[0].repro), rng);
}

TEST(Generator, SameSeedAndIndexIsIdentical) {
    const ScenarioGenerator a{42}, b{42};
    const auto ga = a.pca(5);
    const auto gb = b.pca(5);
    EXPECT_EQ(ga.config.seed, gb.config.seed);
    EXPECT_EQ(ga.config.duration, gb.config.duration);
    EXPECT_EQ(ga.faults.size(), gb.faults.size());
    // Different indices draw from different streams.
    EXPECT_NE(ga.config.seed, a.pca(6).config.seed);
    // A hospital spec is a pure function of (seed, index, hazard), which
    // is what lets a hospital repro carry no spec line; the fault
    // intensity does not enter it.
    const ScenarioGenerator no_faults{42, 0.0};
    for (const bool hazard : {false, true}) {
        EXPECT_EQ(a.hospital(5, hazard).to_text(),
                  no_faults.hospital(5, hazard).to_text());
        EXPECT_NE(a.hospital(5, hazard).to_text(),
                  a.hospital(6, hazard).to_text());
    }
}

TEST(Generator, SafeEnvelopeIsFailSafe) {
    const ScenarioGenerator gen{7};
    for (std::uint64_t i = 0; i < 20; ++i) {
        const auto g = gen.pca(i);
        ASSERT_TRUE(g.config.interlock.has_value());
        EXPECT_EQ(g.config.interlock->data_loss,
                  core::DataLossPolicy::kFailSafe);
        // The hospital envelope keeps the pump-local interlock; only the
        // hazard removes it.
        EXPECT_EQ(*gen.hospital(i, false).find("interlock"), "local");
        EXPECT_EQ(*gen.hospital(i, true).find("interlock"), "off");
    }
}

/// The fault intensity scales the number of fault events per plan, so
/// a value outside [0, kMaxFaultIntensity] is refused by name before
/// anything is sampled: NaN would run fault-free, and an infinite event
/// count cannot be cast.
TEST(Generator, FaultIntensityOutsideItsDomainIsRefused) {
    for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, -1.0, 1e9,
                             std::nextafter(kMaxFaultIntensity, HUGE_VAL)}) {
        EXPECT_FALSE(fault_intensity_in_domain(bad)) << bad;
        try {
            (void)ScenarioGenerator{42, bad};
            ADD_FAILURE() << "accepted fault intensity " << bad;
        } catch (const std::invalid_argument& e) {
            char value[32];
            std::snprintf(value, sizeof value, "%g", bad);
            EXPECT_EQ(std::string{e.what()},
                      std::string{"fault intensity "} + value +
                          " is outside [0, 100]");
        }
    }
    for (const double good : {0.0, 1.0, kMaxFaultIntensity}) {
        EXPECT_TRUE(fault_intensity_in_domain(good)) << good;
        EXPECT_NO_THROW((void)ScenarioGenerator(42, good)) << good;
    }
}

TEST(Runner, SameScenarioSameFingerprint) {
    const ScenarioGenerator gen{42};
    const auto g = gen.pca(0);
    const auto checker = InvariantChecker::with_defaults();
    const auto r1 = run_instrumented_pca(g.config, g.faults, checker);
    const auto r2 = run_instrumented_pca(g.config, g.faults, checker);
    EXPECT_EQ(r1.fingerprint, r2.fingerprint);
    EXPECT_EQ(r1.violations, r2.violations);
}

TEST(Runner, FaultPlanChangesTheRun) {
    const ScenarioGenerator gen{42};
    const auto g = gen.pca(1);
    const auto checker = InvariantChecker::with_defaults();
    FaultPlan heavy;
    heavy.events.push_back(
        {FaultKind::kLossBurst, 120_s, 60_s, "pca_interlock", 1.0});
    const auto base = run_instrumented_pca(g.config, FaultPlan{}, checker);
    const auto faulted = run_instrumented_pca(g.config, heavy, checker);
    EXPECT_NE(base.fingerprint, faulted.fingerprint);
}

TEST(Invariants, DefaultsCoverTheSafetyProperties) {
    const auto names = InvariantChecker::with_defaults().names();
    ASSERT_EQ(names.size(), 5u);
    EXPECT_EQ(names[0], "pca/respiratory-depression-interlock");
}

TEST(Invariants, XrayApneaBound) {
    core::XrayScenarioConfig cfg;
    core::XrayScenarioResult ok;
    ok.max_apnea_s = cfg.ventilator.max_pause.to_seconds();
    EXPECT_TRUE(InvariantChecker::check_xray(cfg, ok).empty());

    core::XrayScenarioResult bad;
    bad.max_apnea_s = cfg.ventilator.max_pause.to_seconds() + 10.0;
    const auto violations = InvariantChecker::check_xray(cfg, bad);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].invariant, "xray/vent-pause-bounded");
}

TEST(Repro, SaveToFullDiskThrowsNamingThePath) {
    Repro r;
    r.seed = 42;
    r.index = 3;
    std::string what;
    try {
        save_repro("/dev/full", r);
    } catch (const std::runtime_error& e) {
        what = e.what();
    }
    EXPECT_NE(what.find("/dev/full"), std::string::npos)
        << "a repro write that hit a full disk must throw, got '" << what
        << "'";
}

TEST(Replay, ReplayIsByteIdentical) {
    const ScenarioGenerator gen{42};
    const auto g = gen.pca(2);
    const auto checker = InvariantChecker::with_defaults();
    const auto run = run_instrumented_pca(g.config, g.faults, checker);

    Repro r;
    r.seed = 42;
    r.index = 2;
    r.faults = g.faults;
    r.fingerprint = run.fingerprint;
    const auto replayed = replay(r, checker);
    EXPECT_TRUE(replayed.byte_identical);
    EXPECT_EQ(replayed.fingerprint, run.fingerprint);
}

TEST(Replay, WeakenedFixtureViolatesAndShrinks) {
    const ScenarioGenerator gen{42};
    const auto checker = InvariantChecker::with_defaults();
    const auto g = gen.weakened_pca(0);
    const auto run = run_instrumented_pca(g.config, g.faults, checker);
    ASSERT_FALSE(run.violations.empty())
        << "the weakened interlock must violate an invariant";

    Repro r;
    r.seed = 42;
    r.index = 0;
    r.weakened = true;
    r.faults = g.faults;
    std::size_t shrink_runs = 0;
    const Repro minimal = shrink(r, checker, &shrink_runs);
    EXPECT_LE(minimal.faults.size(), 5u);
    EXPECT_GT(shrink_runs, 0u);

    // The shrunk repro still violates and replays byte-identically.
    const auto replayed = replay(minimal, checker);
    EXPECT_FALSE(replayed.violations.empty());
    EXPECT_TRUE(replayed.byte_identical);
}

TEST(Fuzzer, SmokeRunOverSafeEnvelopeIsClean) {
    FuzzOptions opts;
    opts.seed = 42;
    opts.scenarios = 25;
    const auto outcome = run_fuzz(opts);
    EXPECT_EQ(outcome.scenarios_run, 25u);
    EXPECT_EQ(outcome.pca_runs + outcome.xray_runs, 25u);
    EXPECT_TRUE(outcome.clean());
}

TEST(Fuzzer, WeakenedModeReportsShrunkFailures) {
    FuzzOptions opts;
    opts.seed = 42;
    opts.scenarios = 1;
    opts.weakened = true;
    const auto outcome = run_fuzz(opts);
    ASSERT_FALSE(outcome.failures.empty());
    const auto& f = outcome.failures.front();
    EXPECT_TRUE(f.replay_byte_identical);
    EXPECT_LE(f.repro.faults.size(), 5u);
    EXPECT_FALSE(f.violations.empty());
    EXPECT_TRUE(f.repro_path.empty());  // no repro_dir configured
}

/// Run \p opts at jobs 1 and at jobs 4 and expect the same outcome,
/// the same repros and a byte-identical log stream.
void expect_jobs_invariant(FuzzOptions opts, const InvariantChecker& checker) {
    std::vector<std::string> serial_log, parallel_log;
    opts.log = [&serial_log](const std::string& l) {
        serial_log.push_back(l);
    };
    const auto serial = run_fuzz(opts, checker, /*jobs=*/1);
    opts.log = [&parallel_log](const std::string& l) {
        parallel_log.push_back(l);
    };
    const auto parallel = run_fuzz(opts, checker, /*jobs=*/4);

    EXPECT_EQ(serial.scenarios_run, opts.scenarios);
    EXPECT_EQ(serial.scenarios_run, parallel.scenarios_run);
    EXPECT_EQ(serial.pca_runs, parallel.pca_runs);
    EXPECT_EQ(serial.xray_runs, parallel.xray_runs);
    EXPECT_EQ(serial.hospital_runs, parallel.hospital_runs);
    ASSERT_EQ(serial.failures.size(), parallel.failures.size());
    ASSERT_FALSE(serial.failures.empty());
    EXPECT_LT(serial.failures.front().repro.index, 64u);
    EXPECT_GE(serial.failures.back().repro.index, 64u);  // past one window
    for (std::size_t i = 0; i < serial.failures.size(); ++i) {
        EXPECT_EQ(to_text(serial.failures[i].repro),
                  to_text(parallel.failures[i].repro));
        EXPECT_EQ(serial.failures[i].violations,
                  parallel.failures[i].violations);
    }
    EXPECT_FALSE(serial_log.empty());
    EXPECT_EQ(serial_log, parallel_log);  // byte-identical log stream
}

/// The one fuzz loop at jobs 4 against jobs 1, over more scenarios than
/// one window holds, for the pca/xray mix and for the hospital family.
TEST(Fuzzer, JobsFourMatchesJobsOneAcrossWindows) {
    FuzzOptions opts;
    opts.seed = 2026;
    opts.scenarios = 70;
    opts.shrink = false;  // keep the test fast; capture is still canonical
    // A cheap invariant that about one pca scenario in four violates,
    // so both windows have failures to capture and log.
    auto checker = InvariantChecker::with_defaults();
    checker.add_pca("test/seed-not-multiple-of-4",
                    [](const PcaCheckContext& ctx, std::vector<Violation>& out) {
                        if (ctx.cfg.seed % 4 == 0) {
                            out.push_back({"test/seed-not-multiple-of-4", 0.0,
                                           std::to_string(ctx.cfg.seed)});
                        }
                    });
    expect_jobs_invariant(opts, checker);

    // Hospital hazards violate at most indices; each hospital run also
    // spreads its wards over the spec's own jobs knob.
    FuzzOptions hospital;
    hospital.seed = 2026;
    hospital.scenarios = 66;
    hospital.hospital = true;
    hospital.weakened = true;
    hospital.shrink = false;
    expect_jobs_invariant(hospital, InvariantChecker::with_defaults());
}

/// A hospital hazard goes through the one capture path: it is logged,
/// "shrunk" (no fault plan: a no-op), saved as an `mcps-repro v2`
/// record with no spec line, and replays byte-identically from the
/// file. The fingerprints of the seed-42 hazards and the times of
/// their first deadline violations are pinned.
TEST(HospitalRepro, HazardReproReplaysByteIdentically) {
    FuzzOptions opts;
    opts.seed = 42;
    opts.scenarios = 3;
    opts.hospital = true;
    opts.weakened = true;
    opts.repro_dir = ::testing::TempDir() + "hospital_hazard_repro";
    const FuzzOutcome outcome = run_fuzz(opts);
    EXPECT_EQ(outcome.hospital_runs, 3u);
    EXPECT_EQ(outcome.pca_runs + outcome.xray_runs, 0u);
    const std::uint64_t kPinned[] = {0xa25bd50dad3c0073ULL,
                                     0x8a7afa66ffaa5afeULL,
                                     0x2e3d61c6086b2ce4ULL};
    const double kPinnedAtS[] = {145.0, 154.0, 149.0};
    ASSERT_EQ(outcome.failures.size(), 3u);
    const auto checker = InvariantChecker::with_defaults();
    for (std::uint64_t i = 0; i < 3; ++i) {
        const FuzzFailure& f = outcome.failures[i];
        EXPECT_EQ(f.repro.index, i);
        EXPECT_EQ(f.repro.fingerprint, kPinned[i]);
        EXPECT_TRUE(f.replay_byte_identical);
        ASSERT_EQ(f.violations.size(), 1u);
        EXPECT_EQ(f.violations[0].invariant, kHospitalHazard);
        EXPECT_EQ(f.violations[0].at_s, kPinnedAtS[i]);
        EXPECT_EQ(f.repro_path, opts.repro_dir + "/hospital-42-" +
                                    std::to_string(i) + ".txt");

        std::ostringstream file;
        file << std::ifstream{f.repro_path}.rdbuf();
        EXPECT_EQ(file.str(), to_text(f.repro));
        Repro loaded = load_repro(f.repro_path);
        const ReplayResult replayed = replay(loaded, checker);
        EXPECT_TRUE(replayed.byte_identical);
        EXPECT_EQ(replayed.violations, f.violations);

        // The safe-envelope spec of the same index is a different run.
        loaded.weakened = false;
        EXPECT_FALSE(replay(loaded, checker).byte_identical);
    }
}

/// The x-ray fraction is a probability: NaN (which would route every
/// index to pca) and values outside [0, 1] are refused by name before
/// any scenario runs; so is a fault intensity outside its domain.
TEST(Fuzzer, RefusesOptionsOutsideTheirDomains) {
    for (const double bad : {std::nan(""), -0.1, 7.0, HUGE_VAL}) {
        FuzzOptions opts;
        opts.scenarios = 1;
        opts.xray_fraction = bad;
        char value[32];
        std::snprintf(value, sizeof value, "%g", bad);
        try {
            (void)run_fuzz(opts);
            ADD_FAILURE() << "accepted x-ray fraction " << bad;
        } catch (const std::invalid_argument& e) {
            EXPECT_EQ(std::string{e.what()},
                      std::string{"x-ray fraction "} + value +
                          " is outside [0, 1]");
        }
    }
    FuzzOptions opts;
    opts.scenarios = 1;
    opts.fault_intensity = std::nan("");
    EXPECT_THROW((void)run_fuzz(opts), std::invalid_argument);
}

}  // namespace
