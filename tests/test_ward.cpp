/// \file test_ward.cpp
/// \brief Ward engine determinism: the parallel campaign must be
/// bit-identical to the serial one — fingerprint AND every merged
/// statistic — for any job count, across scenario mixes and with
/// adversarial fault plans enabled.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ward/hospital_fuzz.hpp"
#include "ward/ward.hpp"

namespace {

using namespace mcps;
using namespace mcps::ward;

// ---- thread pool -----------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
    ThreadPool pool{4};
    EXPECT_EQ(pool.worker_count(), 4u);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i) {
        pool.submit([&ran] { ++ran; });
    }
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
    ThreadPool pool{2};
    pool.wait_idle();  // must not hang
    std::atomic<int> ran{0};
    pool.submit([&ran] { ++ran; });
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ParallelShards, CoversEveryShardExactlyOnce) {
    for (const unsigned jobs : {1u, 3u, 8u}) {
        std::vector<std::atomic<int>> hits(17);
        parallel_shards(hits.size(), jobs,
                        [&hits](std::size_t s) { ++hits[s]; });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelShards, PropagatesFirstException) {
    EXPECT_THROW(
        parallel_shards(8, 4,
                        [](std::size_t s) {
                            if (s == 5) throw std::runtime_error{"boom"};
                        }),
        std::runtime_error);
}

TEST(ShardRange, PartitionsContiguouslyAndCompletely) {
    for (const std::size_t items : {0u, 1u, 7u, 64u, 65u}) {
        for (const std::size_t shards : {1u, 3u, 8u, 64u}) {
            std::size_t expect_first = 0;
            for (std::size_t s = 0; s < shards; ++s) {
                const auto r = shard_range(items, shards, s);
                EXPECT_EQ(r.first, expect_first);
                EXPECT_LE(r.first, r.last);
                expect_first = r.last;
            }
            EXPECT_EQ(expect_first, items);
        }
    }
}

// ---- config / mix ----------------------------------------------------

TEST(ScenarioMix, ParseRoundTrip) {
    const auto mix = parse_mix("pca=2,xray=1,ward=1");
    const auto n = mix.normalized();
    EXPECT_DOUBLE_EQ(n.pca, 0.5);
    EXPECT_DOUBLE_EQ(n.xray, 0.25);
    EXPECT_DOUBLE_EQ(n.alarm_ward, 0.25);
    EXPECT_EQ(to_string(n), "pca=0.500,xray=0.250,ward=0.250");
    // alarm_ward is an accepted alias for ward.
    EXPECT_EQ(parse_mix("alarm_ward=1"), parse_mix("ward=1"));
}

TEST(ScenarioMix, RejectsBadSpecs) {
    EXPECT_THROW((void)parse_mix("pca=0.5,bogus=1"), WardConfigError);
    EXPECT_THROW((void)parse_mix("pca=abc"), WardConfigError);
    const ScenarioMix all_zero{0, 0, 0};
    const ScenarioMix negative{-1, 2, 0};
    EXPECT_THROW((void)all_zero.normalized(), WardConfigError);
    EXPECT_THROW((void)negative.normalized(), WardConfigError);
}

TEST(WardConfig, ValidateRejectsDegenerateCampaigns) {
    WardConfig cfg;
    cfg.patients = 0;
    EXPECT_THROW(cfg.validate(), WardConfigError);
    cfg.patients = 4;
    cfg.shards = 0;
    EXPECT_THROW(cfg.validate(), WardConfigError);
    cfg.shards = 4;
    cfg.fault_intensity = -0.5;
    EXPECT_THROW(cfg.validate(), WardConfigError);
}

TEST(WardScenarioFactory, KindChoiceIsDeterministicAndMixWeighted) {
    WardConfig cfg;
    cfg.seed = 777;
    cfg.patients = 200;
    const WardScenarioFactory a{cfg}, b{cfg};
    std::size_t pca = 0, xray = 0, alarm = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
        const auto k = a.kind_of(i);
        EXPECT_EQ(k, b.kind_of(i));  // pure function of (seed, index)
        switch (k) {
            case WardScenarioKind::kPcaClosedLoop: ++pca; break;
            case WardScenarioKind::kXraySync: ++xray; break;
            case WardScenarioKind::kAlarmWard: ++alarm; break;
            case WardScenarioKind::kHospital:
                FAIL() << "default mix has no hospital weight";
                break;
        }
    }
    // Default mix is 70/15/15; with 200 draws every kind must appear and
    // PCA must dominate.
    EXPECT_GT(pca, xray);
    EXPECT_GT(pca, alarm);
    EXPECT_GT(xray, 0u);
    EXPECT_GT(alarm, 0u);
}

// ---- engine determinism ----------------------------------------------

/// Bitwise equality for merged doubles: the determinism contract is
/// bit-identical reduction, not approximate agreement.
bool bits_equal(double a, double b) {
    std::uint64_t ua = 0, ub = 0;
    std::memcpy(&ua, &a, sizeof a);
    std::memcpy(&ub, &b, sizeof b);
    return ua == ub;
}

void expect_reports_identical(const WardReport& s, const WardReport& p) {
    EXPECT_EQ(s.fingerprint, p.fingerprint);
    EXPECT_EQ(s.pca_runs, p.pca_runs);
    EXPECT_EQ(s.xray_runs, p.xray_runs);
    EXPECT_EQ(s.alarm_ward_runs, p.alarm_ward_runs);
    EXPECT_EQ(s.hospital_runs, p.hospital_runs);
    EXPECT_EQ(s.demands_denied, p.demands_denied);
    EXPECT_EQ(s.interlock_stops, p.interlock_stops);
    EXPECT_EQ(s.monitor_alarms, p.monitor_alarms);
    EXPECT_EQ(s.smart_alarms, p.smart_alarms);
    EXPECT_EQ(s.smart_critical, p.smart_critical);
    EXPECT_EQ(s.violations, p.violations);
    EXPECT_EQ(s.events_dispatched, p.events_dispatched);

    EXPECT_EQ(s.drug_mg.count(), p.drug_mg.count());
    EXPECT_TRUE(bits_equal(s.drug_mg.mean(), p.drug_mg.mean()));
    EXPECT_TRUE(bits_equal(s.drug_mg.variance(), p.drug_mg.variance()));
    EXPECT_TRUE(bits_equal(s.min_spo2.mean(), p.min_spo2.mean()));
    EXPECT_TRUE(bits_equal(s.mean_pain.mean(), p.mean_pain.mean()));
    EXPECT_TRUE(bits_equal(s.detection_latency_s.mean(),
                           p.detection_latency_s.mean()));

    EXPECT_EQ(s.dose_hist.total(), p.dose_hist.total());
    for (std::size_t i = 0; i < s.dose_hist.bins(); ++i) {
        EXPECT_EQ(s.dose_hist.bin_count(i), p.dose_hist.bin_count(i));
    }
    EXPECT_EQ(s.latency_hist.total(), p.latency_hist.total());
}

TEST(WardEngine, ParallelRunIsBitIdenticalAcrossMixes) {
    // Three mixes: PCA-heavy, x-ray-heavy, alarm-heavy.
    const ScenarioMix mixes[] = {
        {0.8, 0.1, 0.1}, {0.2, 0.6, 0.2}, {0.2, 0.2, 0.6}};
    for (const auto& mix : mixes) {
        WardConfig cfg;
        cfg.seed = 4242;
        cfg.patients = 10;
        cfg.shards = 5;
        cfg.mix = mix;

        cfg.jobs = 1;
        const auto serial = WardEngine{cfg}.run();
        cfg.jobs = 8;
        const auto parallel = WardEngine{cfg}.run();
        expect_reports_identical(serial, parallel);
    }
}

TEST(WardEngine, HospitalWorkloadRunsInMixAndStaysBitIdentical) {
    // The PR-9 wiring check: campaigns can embed smoke-sized hospital
    // population runs next to the classic workloads, the kind sequence
    // draws them, and serial vs parallel reports stay bit-identical.
    WardConfig cfg;
    cfg.seed = 9001;
    cfg.patients = 12;
    cfg.shards = 6;
    cfg.mix = {0.25, 0.25, 0.25, 0.25};

    cfg.jobs = 1;
    const auto serial = WardEngine{cfg}.run();
    cfg.jobs = 8;
    const auto parallel = WardEngine{cfg}.run();
    expect_reports_identical(serial, parallel);

    EXPECT_GT(serial.hospital_runs, 0u);
    EXPECT_EQ(serial.pca_runs + serial.xray_runs + serial.alarm_ward_runs +
                  serial.hospital_runs,
              serial.patients);
    // Hospital slots run inside the claimed-safe envelope (local
    // interlock), so they add no invariant violations.
    EXPECT_EQ(serial.violations, 0u);
    EXPECT_EQ(to_string(cfg.mix),
              "pca=0.250,xray=0.250,ward=0.250,hospital=0.250");
}

TEST(WardConfig, HospitalMixParsesAndRendersOnlyWhenPresent) {
    const auto mix = parse_mix("pca=1,hospital=1");
    EXPECT_DOUBLE_EQ(mix.pca, 0.5);
    EXPECT_DOUBLE_EQ(mix.hospital, 0.5);
    EXPECT_EQ(to_string(mix), "pca=0.500,xray=0.000,ward=0.000,hospital=0.500");
    // Without a hospital weight the classic three-key rendering is
    // byte-stable (pinned report text depends on it).
    EXPECT_EQ(to_string(parse_mix("pca=2,xray=1,ward=1")),
              "pca=0.500,xray=0.250,ward=0.250");
}

TEST(WardEngine, ParallelRunIsBitIdenticalWithFaultPlans) {
    WardConfig cfg;
    cfg.seed = 31337;
    cfg.patients = 12;
    cfg.shards = 6;
    cfg.fault_intensity = 1.0;  // adversarial fault plans enabled

    cfg.jobs = 1;
    const auto serial = WardEngine{cfg}.run();
    cfg.jobs = 8;
    const auto parallel = WardEngine{cfg}.run();
    expect_reports_identical(serial, parallel);
}

TEST(WardEngine, ObservationIsBitIdenticalAcrossJobCounts) {
    WardConfig cfg;
    cfg.seed = 777;
    cfg.patients = 12;
    cfg.shards = 6;
    cfg.mix = {0.5, 0.25, 0.25};
    cfg.fault_intensity = 1.0;
    const auto checker = testkit::InvariantChecker::with_defaults();

    std::vector<WardObservation> observations;
    for (const unsigned jobs : {1u, 4u, 8u}) {
        cfg.jobs = jobs;
        auto& o = observations.emplace_back();
        (void)WardEngine{cfg}.run(checker, &o);
    }

    const auto& ref = observations.front();
    ASSERT_FALSE(ref.events.empty());
    EXPECT_GT(ref.metrics.counter_count(), 0u);
    for (std::size_t i = 1; i < observations.size(); ++i) {
        const auto& o = observations[i];
        // Full structural equality, not just fingerprints.
        ASSERT_EQ(o.events.size(), ref.events.size());
        EXPECT_TRUE(o.events == ref.events);
        EXPECT_EQ(o.events.fingerprint(), ref.events.fingerprint());
        EXPECT_EQ(o.metrics.fingerprint(), ref.metrics.fingerprint());
    }

    // The merged metrics agree with the ward totals.
    cfg.jobs = 1;
    const auto report = WardEngine{cfg}.run(checker, nullptr);
    const auto* scenarios = ref.metrics.find_counter("ward.scenarios");
    ASSERT_NE(scenarios, nullptr);
    EXPECT_EQ(scenarios->value(), cfg.patients);
    const auto* stops = ref.metrics.find_counter("ward.interlock_stops");
    ASSERT_NE(stops, nullptr);
    EXPECT_EQ(stops->value(), report.interlock_stops);
}

TEST(WardEngine, ObservationCollectsShardAndScenarioEvents) {
    WardConfig cfg;
    cfg.seed = 99;
    cfg.patients = 4;
    cfg.shards = 2;
    cfg.mix = {1.0, 0.0, 0.0};  // all PCA
    WardObservation o;
    (void)WardEngine{cfg}.run(testkit::InvariantChecker::with_defaults(), &o);

    EXPECT_EQ(o.events.count(mcps::obs::EventKind::kShardStart), 2u);
    EXPECT_EQ(o.events.count(mcps::obs::EventKind::kShardEnd), 2u);
    EXPECT_EQ(o.events.count(mcps::obs::EventKind::kScenarioStart), 4u);
    EXPECT_EQ(o.events.count(mcps::obs::EventKind::kScenarioEnd), 4u);
    // Bus traffic flows through the shared log.
    EXPECT_GT(o.events.count(mcps::obs::EventKind::kBusPublish), 0u);
}

TEST(WardEngine, FingerprintDependsOnSeedAndMix) {
    WardConfig cfg;
    cfg.patients = 6;
    cfg.shards = 3;
    cfg.seed = 1;
    const auto fp1 = WardEngine{cfg}.run().fingerprint;
    cfg.seed = 2;
    const auto fp2 = WardEngine{cfg}.run().fingerprint;
    EXPECT_NE(fp1, fp2);
    cfg.seed = 1;
    cfg.mix = {0.0, 1.0, 0.0};  // all x-ray
    const auto fp3 = WardEngine{cfg}.run().fingerprint;
    EXPECT_NE(fp1, fp3);
}

TEST(WardEngine, ShardCountFixesTheReduction) {
    // Changing the job count must not change the report; the shard count
    // is what pins the reduction tree, and the fingerprint (integer
    // chain in index order) is invariant to it too.
    WardConfig cfg;
    cfg.seed = 99;
    cfg.patients = 9;
    cfg.shards = 9;
    cfg.jobs = 1;
    const auto nine = WardEngine{cfg}.run();
    cfg.shards = 2;
    cfg.jobs = 4;
    const auto two = WardEngine{cfg}.run();
    EXPECT_EQ(nine.fingerprint, two.fingerprint);
    EXPECT_EQ(nine.events_dispatched, two.events_dispatched);
}

TEST(WardEngine, ReportSerializesBothWays) {
    WardConfig cfg;
    cfg.patients = 4;
    cfg.shards = 2;
    const auto rep = WardEngine{cfg}.run();
    std::ostringstream text, jsn;
    rep.print(text);
    rep.write_json(jsn);
    EXPECT_NE(text.str().find("fingerprint"), std::string::npos);
    EXPECT_NE(jsn.str().find("\"fingerprint\""), std::string::npos);
    EXPECT_NE(jsn.str().find("\"scenarios_per_sec\""), std::string::npos);
}

// ---- parallel fuzz driver --------------------------------------------

TEST(WardFuzzDriver, MatchesSequentialTestkitOutcome) {
    testkit::FuzzOptions opts;
    opts.seed = 2026;
    opts.scenarios = 12;
    opts.fault_intensity = 1.0;
    opts.shrink = false;  // keep the test fast; capture is still canonical
    std::vector<std::string> serial_log, parallel_log;
    opts.log = [&serial_log](const std::string& l) {
        serial_log.push_back(l);
    };
    const auto serial = testkit::run_fuzz(opts);
    opts.log = [&parallel_log](const std::string& l) {
        parallel_log.push_back(l);
    };
    const auto parallel = ward::run_fuzz(opts, /*jobs=*/4);

    EXPECT_EQ(serial.scenarios_run, parallel.scenarios_run);
    EXPECT_EQ(serial.pca_runs, parallel.pca_runs);
    EXPECT_EQ(serial.xray_runs, parallel.xray_runs);
    ASSERT_EQ(serial.failures.size(), parallel.failures.size());
    for (std::size_t i = 0; i < serial.failures.size(); ++i) {
        EXPECT_EQ(serial.failures[i].repro.fingerprint,
                  parallel.failures[i].repro.fingerprint);
        EXPECT_EQ(serial.failures[i].violations.size(),
                  parallel.failures[i].violations.size());
    }
    EXPECT_EQ(serial_log, parallel_log);  // byte-identical log stream
}

// ---- hospital repro files --------------------------------------------

/// The error text of replaying \p text from a file, or "" when it
/// replays.
std::string hospital_repro_error(const std::string& path,
                                 const std::string& text) {
    std::ofstream{path} << text;
    try {
        (void)replay_hospital_repro(path);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

/// A hazard repro written by the campaign replays byte-identically; a
/// file that could not have been written by it is malformed (exit 2 on
/// the CLI), never a fingerprint MISMATCH (exit 1).
TEST(HospitalRepro, RealFileReplaysAndMalformedFilesAreRejected) {
    HospitalFuzzOptions opts;
    opts.scenarios = 1;
    opts.seed = 42;
    opts.hazard = true;
    opts.repro_dir = ::testing::TempDir() + "hospital_repro_strict";
    const HospitalFuzzOutcome outcome = run_hospital_fuzz(opts);
    ASSERT_EQ(outcome.violating_specs, 1u);
    ASSERT_TRUE(outcome.clean());
    const std::string real = opts.repro_dir + "/hospital-42-0.repro";
    const HospitalReplayResult replayed = replay_hospital_repro(real);
    EXPECT_TRUE(replayed.byte_identical);
    EXPECT_EQ(replayed.fingerprint, replayed.expected_fingerprint);
    EXPECT_GT(replayed.deadline_violations, 0.0);
    EXPECT_EQ(replayed.invariant.rfind("deadline-hazard-expected: ", 0), 0u);

    std::ostringstream buf;
    buf << std::ifstream{real}.rdbuf();
    const std::string text = buf.str();
    const auto fp_at = text.find("fingerprint: ");
    ASSERT_NE(fp_at, std::string::npos);
    const std::string head = text.substr(0, fp_at);
    const std::string fp_line = text.substr(fp_at);
    const std::string spec_line =
        text.substr(text.find("spec: "), fp_at - text.find("spec: "));
    const std::string header = text.substr(0, text.find('\n') + 1);
    EXPECT_EQ(hospital_repro_error(real, text), "");
    const std::string path = opts.repro_dir + "/mutant.repro";
    for (const std::string& bad : std::vector<std::string>{
             head + "fingerprint: zz\n",
             head + "fingerprint: 0x12zz\n",
             head + "fingerprint: 12\n",
             head + "fingerprint: 0x\n",
             head + "fingerprint: 0x-1\n",
             head + "fingerprint: 0x10000000000000000\n",
             head + "fingerprint:  0x12\n",
             head + fp_line + fp_line,
             head + fp_line + spec_line,
             head + fp_line + "# invariant: again\n",
             head + fp_line + "seed: 7\n",
             head + fp_line + "# a comment\n",
             head,
             header + fp_line,
             text.substr(header.size()),
             header + "spec: \n" + fp_line,
         }) {
        const std::string error = hospital_repro_error(path, bad);
        EXPECT_EQ(error.rfind("malformed hospital repro " + path + ": ", 0),
                  0u)
            << bad << " -> '" << error << "'";
    }
}

}  // namespace
