#include "replay.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sim/hash.hpp"

namespace mcps::testkit {

namespace {
/// v2: the fingerprint folds the run's events, so a v1 file's pinned
/// fingerprint can never match a replay.
constexpr std::string_view kHeader = "mcps-repro v2";
constexpr std::string_view kHeaderStem = "mcps-repro ";
}

std::string to_text(const Repro& r) {
    std::ostringstream os;
    os << kHeader << "\n";
    os << "kind=" << to_string(r.kind) << "\n";
    os << "seed=" << r.seed << "\n";
    os << "index=" << r.index << "\n";
    os << "weakened=" << (r.weakened ? 1 : 0) << "\n";
    os << "fingerprint=" << sim::hex64(r.fingerprint) << "\n";
    for (const auto& e : r.faults.events) {
        char mag[64];
        std::snprintf(mag, sizeof mag, "%.17g", e.magnitude);
        os << "fault kind=" << to_string(e.kind) << " at_us=" << e.at.ticks()
           << " dur_us=" << e.duration.ticks() << " mag=" << mag
           << " target=" << e.target << "\n";
    }
    return os.str();
}

namespace {

[[noreturn]] void malformed(const std::string& why) {
    throw std::runtime_error("repro: malformed file: " + why);
}

/// "key=value" split; returns false if '=' is absent.
bool split_kv(std::string_view tok, std::string_view& key,
              std::string_view& value) {
    const auto eq = tok.find('=');
    if (eq == std::string_view::npos) return false;
    key = tok.substr(0, eq);
    value = tok.substr(eq + 1);
    return true;
}

/// The whole of \p v as an unsigned number in \p base: no sign, no
/// prefix, no trailing bytes, no overflow.
std::uint64_t parse_u64(std::string_view v, const std::string& what,
                        int base = 10) {
    std::uint64_t out = 0;
    const char* end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, out, base);
    if (v.empty() || ec != std::errc{} || ptr != end) {
        malformed("bad integer for " + what + " '" + std::string{v} + "'");
    }
    return out;
}

/// A non-negative microsecond count that fits SimDuration.
mcps::sim::SimDuration parse_micros(std::string_view v,
                                    const std::string& what) {
    const std::uint64_t us = parse_u64(v, what);
    if (us > static_cast<std::uint64_t>(
                 std::numeric_limits<std::int64_t>::max())) {
        malformed(what + " out of range '" + std::string{v} + "'");
    }
    return mcps::sim::SimDuration::micros(static_cast<std::int64_t>(us));
}

double parse_finite(std::string_view v, const std::string& what) {
    double out = 0.0;
    const char* end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, out);
    if (v.empty() || ec != std::errc{} || ptr != end || !std::isfinite(out)) {
        malformed("bad number for " + what + " '" + std::string{v} + "'");
    }
    return out;
}

FaultEvent parse_fault_line(std::istringstream& line) {
    FaultEvent e;
    std::string tok;
    bool have_kind = false;
    while (line >> tok) {
        std::string_view key, value;
        if (!split_kv(tok, key, value)) malformed("fault token '" + tok + "'");
        if (key == "kind") {
            const auto k = fault_kind_from(value);
            if (!k) malformed("unknown fault kind '" + std::string{value} + "'");
            e.kind = *k;
            have_kind = true;
        } else if (key == "at_us") {
            e.at = parse_micros(value, "at_us");
        } else if (key == "dur_us") {
            e.duration = parse_micros(value, "dur_us");
        } else if (key == "mag") {
            e.magnitude = parse_finite(value, "mag");
        } else if (key == "target") {
            e.target = std::string{value};
        } else {
            malformed("unknown fault field '" + std::string{key} + "'");
        }
    }
    if (!have_kind) malformed("fault line without kind");
    if (!magnitude_in_domain(e.kind, e.magnitude)) {
        malformed("mag out of domain for " + std::string{to_string(e.kind)});
    }
    // The injector schedules the window's end at at + dur.
    if (e.at.ticks() > std::numeric_limits<std::int64_t>::max() -
                           e.duration.ticks()) {
        malformed("fault window end overflows (at_us + dur_us)");
    }
    return e;
}

}  // namespace

Repro repro_from_text(const std::string& text) {
    std::istringstream is{text};
    std::string line;
    if (!std::getline(is, line) || line != kHeader) {
        if (line.rfind(kHeaderStem, 0) == 0) {
            throw std::runtime_error(
                "repro: unsupported version '" +
                line.substr(kHeaderStem.size()) + "' (this build reads '" +
                std::string{kHeader.substr(kHeaderStem.size())} +
                "'; re-run the fuzzer to regenerate the file)");
        }
        malformed("missing '" + std::string{kHeader} + "' header");
    }
    Repro r;
    while (std::getline(is, line)) {
        if (line.empty()) continue;
        if (line.rfind("fault ", 0) == 0) {
            std::istringstream rest{line.substr(6)};
            r.faults.events.push_back(parse_fault_line(rest));
            continue;
        }
        std::string_view key, value;
        if (!split_kv(line, key, value)) malformed("line '" + line + "'");
        if (key == "kind") {
            if (value == "pca") {
                r.kind = WorkloadKind::kPca;
            } else if (value == "xray") {
                r.kind = WorkloadKind::kXray;
            } else {
                malformed("unknown workload '" + std::string{value} + "'");
            }
        } else if (key == "seed") {
            r.seed = parse_u64(value, "seed");
        } else if (key == "index") {
            r.index = parse_u64(value, "index");
        } else if (key == "weakened") {
            if (value != "0" && value != "1") {
                malformed("weakened must be 0 or 1, not '" +
                          std::string{value} + "'");
            }
            r.weakened = value == "1";
        } else if (key == "fingerprint") {
            if (value.substr(0, 2) != "0x") {
                malformed("fingerprint must be 0x-prefixed hex, not '" +
                          std::string{value} + "'");
            }
            r.fingerprint = parse_u64(value.substr(2), "fingerprint", 16);
        } else {
            malformed("unknown field '" + std::string{key} + "'");
        }
    }
    return r;
}

void write_text_file(const std::string& path, std::string_view text) {
    std::ofstream os{path, std::ios::binary};
    os << text;
    os.close();
    if (!os) throw std::runtime_error("cannot write " + path);
}

void save_repro(const std::string& path, const Repro& r) {
    write_text_file(path, to_text(r));
}

Repro load_repro(const std::string& path) {
    std::ifstream is{path, std::ios::binary};
    if (!is) throw std::runtime_error("repro: cannot read " + path);
    std::ostringstream buf;
    buf << is.rdbuf();
    return repro_from_text(buf.str());
}

ReplayResult replay(const Repro& r, const InvariantChecker& checker) {
    const ScenarioGenerator gen{r.seed};
    ReplayResult out;
    if (r.kind == WorkloadKind::kXray) {
        const auto run = run_instrumented_xray(gen.xray(r.index).config);
        out.violations = run.violations;
        out.fingerprint = run.fingerprint;
    } else {
        const auto cfg = r.weakened ? gen.weakened_pca(r.index).config
                                    : gen.pca(r.index).config;
        const auto run = run_instrumented_pca(cfg, r.faults, checker);
        out.violations = run.violations;
        out.fingerprint = run.fingerprint;
    }
    out.byte_identical =
        r.fingerprint != 0 && out.fingerprint == r.fingerprint;
    return out;
}

Repro shrink(const Repro& r, const InvariantChecker& checker,
             std::size_t* runs) {
    std::size_t executed = 0;
    Repro cur = r;
    if (cur.kind == WorkloadKind::kPca) {
        bool improved = true;
        while (improved && !cur.faults.empty()) {
            improved = false;
            for (std::size_t i = 0; i < cur.faults.size(); ++i) {
                Repro trial = cur;
                trial.faults = cur.faults.without(i);
                trial.fingerprint = 0;
                const auto res = replay(trial, checker);
                ++executed;
                if (!res.violations.empty()) {
                    trial.fingerprint = res.fingerprint;
                    cur = std::move(trial);
                    improved = true;
                    break;
                }
            }
        }
    }
    // Pin the canonical fingerprint to a run of exactly this repro.
    cur.fingerprint = replay(cur, checker).fingerprint;
    ++executed;
    if (runs) *runs = executed;
    return cur;
}

}  // namespace mcps::testkit
