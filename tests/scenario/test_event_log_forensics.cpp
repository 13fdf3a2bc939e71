/// \file test_event_log_forensics.cpp
/// \brief The incident record's exporters against real scenario logs:
/// the Chrome bytes of both golden traces, and the JSONL and Chrome
/// bytes of pca and x-ray logs with their bus traffic, are pinned by
/// digest, the JSONL goldens round-trip byte for byte, read the same on
/// both decode paths and, without the lines that were trace-recorder
/// marks before, are the files they were then, a mutation sweep over a real pca log
/// shows read_jsonl either rejects a damaged log or reads one whose
/// JSONL is a fixed point, and the stream and in-memory read_jsonl agree
/// on every input, chunk boundaries included.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <optional>
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

/// \p text with a space before every line: no line keeps write_jsonl's
/// exact shape, so read_jsonl reads each one through JsonReader.
std::string respaced(const std::string& text) {
    std::string out;
    for (std::size_t begin = 0; begin < text.size();) {
        const std::size_t end = text.find('\n', begin);
        out += ' ';
        out += text.substr(begin, end - begin + 1);
        begin = end == std::string::npos ? text.size() : end + 1;
    }
    return out;
}

/// The goldens read the same through the direct line decoder as through
/// JsonReader: same events, same symbols, same fingerprint.
TEST(EventLogForensics, GoldenJsonlReadsTheSameOnBothDecodePaths) {
    for (const char* name : {"xray_vent.jsonl", "pca_interlock.jsonl"}) {
        const std::string golden = read_golden(name);
        ASSERT_FALSE(golden.empty()) << name;
        const obs::EventLog direct = obs::read_jsonl(golden);
        const obs::EventLog reader = obs::read_jsonl(respaced(golden));
        ASSERT_GT(direct.size(), 0u) << name;
        EXPECT_TRUE(direct == reader) << name;
        EXPECT_EQ(direct.fingerprint(), reader.fingerprint()) << name;
        ASSERT_EQ(direct.symbol_count(), reader.symbol_count()) << name;
        for (obs::SymbolId id = 0; id < direct.symbol_count(); ++id) {
            EXPECT_EQ(direct.symbol(id), reader.symbol(id)) << name;
        }
    }
}

/// The kinds of the facts that were trace-recorder marks before they
/// were events: device states, alarms, clinician actions, app states.
bool is_former_mark_kind(obs::EventKind k) {
    return k == obs::EventKind::kDeviceState || k == obs::EventKind::kAlarm ||
           k == obs::EventKind::kClinician || k == obs::EventKind::kAppState;
}

/// \p log without the former-mark kinds: the log as it was recorded
/// before those facts became events.
obs::EventLog without_former_marks(const obs::EventLog& log) {
    obs::EventLog out;
    for (const obs::Event& e : log.events()) {
        if (!is_former_mark_kind(e.kind)) {
            out.emit(e.kind, e.time, log.symbol(e.source),
                     log.symbol(e.detail), e.value);
        }
    }
    return out;
}

/// The goldens gained one line per former mark and nothing else: with
/// those lines removed, each is byte for byte the file it was before.
TEST(EventLogForensics, GoldensWithoutFormerMarksAreTheOldFiles) {
    const struct {
        const char* name;
        std::size_t bytes;
        std::uint64_t fnv;
    } kOld[] = {
        {"pca_interlock.jsonl", 663, 0xb1fc1e6dba2209d4ULL},
        {"xray_vent.jsonl", 143896, 0xbe2e14342d4dfa17ULL},
    };
    for (const auto& old : kOld) {
        const obs::EventLog golden = obs::read_jsonl(read_golden(old.name));
        const std::string filtered = jsonl_of(without_former_marks(golden));
        EXPECT_EQ(filtered.size(), old.bytes) << old.name;
        EXPECT_EQ(sim::fnv1a64(filtered), old.fnv) << old.name;
    }
}

/// The Chrome trace_event bytes of both golden logs, pinned by size and
/// FNV-1a digest: no test diffs the Chrome export otherwise, so a
/// change here is a format change and must be deliberate. The export of
/// the x-ray/vent golden without its former-mark lines keeps the pin it
/// had before they were added.
TEST(EventLogForensics, GoldenChromeBytesArePinned) {
    const obs::EventLog log = obs::read_jsonl(read_golden("xray_vent.jsonl"));
    const std::string chrome = chrome_of(log);
    EXPECT_EQ(chrome.size(), 197800u);
    EXPECT_EQ(sim::fnv1a64(chrome), 0x0c183fd123041a7aULL);
    std::ostringstream streamed;
    obs::write_chrome_trace(log, streamed);
    EXPECT_EQ(streamed.str(), chrome);

    const std::string pca =
        chrome_of(obs::read_jsonl(read_golden("pca_interlock.jsonl")));
    EXPECT_EQ(pca.size(), 9590u);
    EXPECT_EQ(sim::fnv1a64(pca), 0x25927277611ebc38ULL);

    const std::string old = chrome_of(without_former_marks(log));
    EXPECT_EQ(old.size(), 194388u);
    EXPECT_EQ(sim::fnv1a64(old), 0x560c32814db60747ULL);
}

/// read_jsonl over \p text as one view and as a stream: both must read
/// equal logs or throw the same message. Returns the log, or nullopt
/// when both rejected \p text.
std::optional<obs::EventLog> read_both(const std::string& text) {
    std::optional<obs::EventLog> from_view, from_stream;
    std::string view_error, stream_error;
    try {
        from_view = obs::read_jsonl(std::string_view{text});
    } catch (const std::runtime_error& e) {
        view_error = e.what();
    }
    try {
        std::istringstream in{text};
        from_stream = obs::read_jsonl(in);
    } catch (const std::runtime_error& e) {
        stream_error = e.what();
    }
    EXPECT_EQ(stream_error, view_error);
    EXPECT_EQ(from_stream.has_value(), from_view.has_value());
    if (from_stream && from_view) {
        EXPECT_TRUE(*from_stream == *from_view);
    }
    return from_view;
}

/// The events-on log of the \p name preset at seed 42, bus traffic
/// included.
obs::EventLog scenario_log(const char* name, std::uint64_t minutes) {
    scenario::ScenarioSpec spec = scenario::registry().default_spec(name);
    spec.seed = 42;
    spec.minutes = minutes;
    obs::EventLog log;
    scenario::RunOptions opts;
    opts.events = &log;
    (void)scenario::registry().run(spec, opts);
    return log;
}

/// The exporters' bytes on bus traffic, which neither golden carries:
/// each preset's 30-minute log at seed 42, written both ways, pinned by
/// size and FNV-1a digest, streamed and in memory alike.
TEST(EventLogForensics, BusTrafficExportBytesArePinned) {
    const struct {
        const char* name;
        std::size_t jsonl_bytes;
        std::uint64_t jsonl_fnv;
        std::size_t chrome_bytes;
        std::uint64_t chrome_fnv;
    } kPins[] = {
        {"pca", 1688444u, 0x71d6dd336a2deb19ULL, 2244490u,
         0x5b62f302e4cbb0a1ULL},
        {"xray", 459258u, 0x4a25d64fa742b4eeULL, 617846u,
         0xb7b8f6ec28fd5275ULL},
    };
    for (const auto& pin : kPins) {
        const obs::EventLog log = scenario_log(pin.name, 30);
        ASSERT_GT(log.count(obs::EventKind::kBusDeliver), 0u) << pin.name;
        const std::string jsonl = jsonl_of(log);
        const std::string chrome = chrome_of(log);
        EXPECT_EQ(jsonl.size(), pin.jsonl_bytes) << pin.name;
        EXPECT_EQ(sim::fnv1a64(jsonl), pin.jsonl_fnv) << pin.name;
        EXPECT_EQ(chrome.size(), pin.chrome_bytes) << pin.name;
        EXPECT_EQ(sim::fnv1a64(chrome), pin.chrome_fnv) << pin.name;
        std::ostringstream streamed_jsonl, streamed_chrome;
        obs::write_jsonl(log, streamed_jsonl);
        obs::write_chrome_trace(log, streamed_chrome);
        EXPECT_EQ(streamed_jsonl.str(), jsonl) << pin.name;
        EXPECT_EQ(streamed_chrome.str(), chrome) << pin.name;
    }
}

/// ROADMAP's event-log mutation sweep, on a real multi-line pca log:
/// every mutant either throws std::runtime_error, or reads back to a log
/// whose symbols all resolve and whose JSONL is a fixed point under
/// read -> write. Both read_jsonl overloads give the same answer.
TEST(EventLogForensics, MutationSweepRejectsOrReachesAFixedPoint) {
    const obs::EventLog base = scenario_log("pca", 5);
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

        const std::optional<obs::EventLog> read = read_both(doc);
        if (!read) {
            ++rejected;
            continue;
        }
        ++read_back;
        const obs::EventLog& log = *read;
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

/// The stream overload reads 64 KiB chunks; these texts put line ends
/// everywhere a chunk can cut. Each must read like the view overload:
/// the same log, or the same error naming the same line.
TEST(EventLogForensics, StreamAndViewReadersAgreeAcrossChunks) {
    constexpr std::size_t kChunk = std::size_t{1} << 16;
    const obs::EventLog base = scenario_log("pca", 5);
    const std::string text = jsonl_of(base);
    ASSERT_GT(text.size(), kChunk + 1000);

    // Shift the first line by up to two line lengths, so the chunk
    // boundary falls on every byte of the line that straddles it, the
    // newline and the byte after it included.
    for (std::size_t shift = 0; shift < 240; ++shift) {
        const auto read = read_both(std::string(shift, ' ') + text);
        ASSERT_TRUE(read);
        EXPECT_TRUE(*read == base) << shift;
    }

    std::string no_final_newline = text;
    no_final_newline.pop_back();
    std::string blank_lines, crlf;
    for (const char c : text) {
        blank_lines += c;
        crlf += c == '\n' ? std::string{"\r\n"} : std::string(1, c);
        if (c == '\n') blank_lines += "\n\n";
    }
    for (const std::string* t : {&no_final_newline, &blank_lines, &crlf}) {
        const auto read = read_both(*t);
        ASSERT_TRUE(read);
        EXPECT_TRUE(*read == base);
    }

    // A line longer than one chunk, valid (its unknown key is skipped)
    // and then broken, between ordinary lines.
    const std::string first = text.substr(0, text.find('\n') + 1);
    std::string huge = first;
    huge.insert(huge.size() - 2,
                ",\"pad\":\"" + std::string(3 * kChunk, 'x') + "\"");
    const auto read = read_both(first + huge + first);
    ASSERT_TRUE(read);
    EXPECT_EQ(read->size(), 3u);
    std::string broken = huge;
    broken[2 * kChunk] = '\x01';
    EXPECT_FALSE(read_both(first + first + broken + first));
    try {
        std::istringstream in{first + first + broken};
        (void)obs::read_jsonl(in);
        ADD_FAILURE() << "a raw control byte was read";
    } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string{e.what()}.rfind("jsonl line 3: ", 0), 0u)
            << e.what();
    }

    // A damaged line on each side of a chunk boundary.
    for (const std::size_t at : {kChunk - 1, kChunk, kChunk + 1}) {
        std::string damaged = text;
        damaged[at] = damaged[at] == '\n' ? '{' : '\n';
        EXPECT_FALSE(read_both(damaged)) << at;
    }
}

}  // namespace
