/// \file test_event_log_forensics.cpp
/// \brief The incident record's exporters against real scenario logs:
/// the Chrome bytes of the x-ray golden trace are pinned by digest, the
/// JSONL goldens round-trip byte for byte, and a mutation sweep over a
/// real pca log shows read_jsonl either rejects a damaged log or reads
/// one whose JSONL is a fixed point.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/exporters.hpp"
#include "scenario/scenario.hpp"
#include "sim/hash.hpp"

namespace {

using namespace mcps;

std::string read_golden(const std::string& name) {
    std::ifstream in{std::string{MCPS_GOLDEN_DIR} + "/" + name,
                     std::ios::binary};
    EXPECT_TRUE(in) << name;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string jsonl_of(const obs::EventLog& log) {
    std::string text;
    obs::write_jsonl(log, text);
    return text;
}

std::string chrome_of(const obs::EventLog& log) {
    std::string text;
    obs::write_chrome_trace(log, text);
    return text;
}

TEST(EventLogForensics, GoldenJsonlRoundTripsByteForByte) {
    for (const char* name : {"xray_vent.jsonl", "pca_interlock.jsonl"}) {
        const std::string golden = read_golden(name);
        ASSERT_FALSE(golden.empty()) << name;
        EXPECT_EQ(jsonl_of(obs::read_jsonl(golden)), golden) << name;
        std::istringstream in{golden};
        std::ostringstream out;
        obs::write_jsonl(obs::read_jsonl(in), out);
        EXPECT_EQ(out.str(), golden) << name;
    }
}

/// The Chrome trace_event bytes of the x-ray/vent golden log, pinned by
/// size and FNV-1a digest: no test diffs the Chrome export otherwise, so
/// a change here is a format change and must be deliberate.
TEST(EventLogForensics, GoldenChromeBytesArePinned) {
    const obs::EventLog log = obs::read_jsonl(read_golden("xray_vent.jsonl"));
    const std::string chrome = chrome_of(log);
    EXPECT_EQ(chrome.size(), 194388u);
    EXPECT_EQ(sim::fnv1a64(chrome), 0x560c32814db60747ULL);
    std::ostringstream streamed;
    obs::write_chrome_trace(log, streamed);
    EXPECT_EQ(streamed.str(), chrome);
}

obs::EventLog pca_log(std::uint64_t minutes) {
    scenario::ScenarioSpec spec = scenario::registry().default_spec("pca");
    spec.minutes = minutes;
    obs::EventLog log;
    scenario::RunOptions opts;
    opts.events = &log;
    (void)scenario::registry().run(spec, opts);
    return log;
}

/// ROADMAP's event-log mutation sweep, on a real multi-line pca log:
/// every mutant either throws std::runtime_error, or reads back to a log
/// whose symbols all resolve and whose JSONL is a fixed point under
/// read -> write.
TEST(EventLogForensics, MutationSweepRejectsOrReachesAFixedPoint) {
    const obs::EventLog base = pca_log(5);
    ASSERT_GT(base.size(), 500u);
    const std::string text = jsonl_of(base);
    ASSERT_EQ(obs::read_jsonl(text).fingerprint(), base.fingerprint());

    std::vector<std::size_t> line_starts{0};
    for (std::size_t i = 0; i + 1 < text.size(); ++i) {
        if (text[i] == '\n') line_starts.push_back(i + 1);
    }
    constexpr std::size_t kWindow = 24;  // lines per mutant
    ASSERT_GT(line_starts.size(), kWindow);

    constexpr char kInteresting[] = "{}[]\":,\\\n 0123456789.-+eEnul\x01\x7f";
    std::mt19937_64 rng{20261017};
    std::uint64_t rejected = 0, read_back = 0;
    for (int iter = 0; iter < 2000; ++iter) {
        const std::size_t first = rng() % (line_starts.size() - kWindow);
        const std::size_t end = first + kWindow < line_starts.size()
                                    ? line_starts[first + kWindow]
                                    : text.size();
        std::string doc =
            text.substr(line_starts[first], end - line_starts[first]);
        const int mutations = 1 + static_cast<int>(rng() % 4);
        for (int m = 0; m < mutations && !doc.empty(); ++m) {
            const std::size_t at = rng() % doc.size();
            switch (rng() % 6) {
                case 0: doc[at] = static_cast<char>(rng() & 0xFF); break;
                case 1: doc.erase(at, 1 + rng() % 4); break;
                case 2: doc.insert(at, doc.substr(at, rng() % 12 + 1)); break;
                case 3:
                    doc.insert(doc.begin() + static_cast<std::ptrdiff_t>(at),
                               kInteresting[rng() % (sizeof kInteresting - 1)]);
                    break;
                case 4:
                    doc[at] = kInteresting[rng() % (sizeof kInteresting - 1)];
                    break;
                default: doc.resize(at); break;
            }
        }

        bool ok = true;
        obs::EventLog log;
        try {
            log = obs::read_jsonl(doc);
        } catch (const std::runtime_error&) {
            ok = false;
        }
        if (!ok) {
            ++rejected;
            continue;
        }
        ++read_back;
        for (const obs::Event& e : log.events()) {
            ASSERT_LT(e.source, log.symbol_count());
            ASSERT_LT(e.detail, log.symbol_count());
        }
        // Not `again == log`: a read "-0" writes back as "0".
        const std::string once = jsonl_of(log);
        ASSERT_EQ(jsonl_of(obs::read_jsonl(once)), once) << doc;
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(read_back, 0u);
}

}  // namespace
