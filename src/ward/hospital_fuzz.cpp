#include "ward/hospital_fuzz.hpp"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "scenario/registry.hpp"
#include "sim/hash.hpp"
#include "sim/rng.hpp"
#include "testkit/replay.hpp"

namespace mcps::ward {
namespace {

using scenario::KnobInfo;
using scenario::RunArtifacts;
using scenario::ScenarioInfo;
using scenario::ScenarioSpec;

/// First line of every hospital repro file.
constexpr std::string_view kReproHeader = "# mcps_fuzz --hospital repro";

std::string fmt_double(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return buf;
}

/// The inverse of sim::hex64: the whole of \p v is "0x" and hex
/// digits, with no sign, no trailing bytes and no overflow.
bool parse_fingerprint(std::string_view v, std::uint64_t& out) {
    if (v.size() <= 2 || v.substr(0, 2) != "0x") return false;
    const char* end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data() + 2, end, out, 16);
    return ec == std::errc{} && ptr == end;
}

/// Sample a knob uniformly from its claimed-safe envelope.
double safe_number(sim::RngStream& rng, const ScenarioInfo& info,
                   const char* knob) {
    const KnobInfo* k = info.find_knob(knob);
    if (k == nullptr) {
        throw std::logic_error{std::string{"hospital fuzz: registry lost "
                                           "knob '"} +
                               knob + "'"};
    }
    return rng.uniform(k->safe_lo, k->safe_hi);
}

/// One random hospital spec. Safe mode stays inside the claimed-safe
/// envelope (interlock=local; monitor/deadline within their TA5
/// envelopes; storms allowed — the pump-local interlock is
/// bus-independent, so contention cannot stretch its reaction bound).
/// Hazard mode removes the interlock and synchronizes a large storm,
/// which reliably blows the deadline within a few simulated minutes.
ScenarioSpec sample_spec(const ScenarioInfo& info, std::uint64_t seed,
                         std::uint64_t index, bool hazard) {
    sim::RngStream rng{seed, "fuzz.hospital." + std::to_string(index)};

    ScenarioSpec spec = scenario::registry().default_spec(info.name);
    spec.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1000000));

    const std::int64_t patients =
        hazard ? rng.uniform_int(16, 48) : rng.uniform_int(8, 96);
    const std::int64_t max_wards = patients < 4 ? patients : 4;
    spec.minutes = static_cast<std::uint64_t>(
        hazard ? rng.uniform_int(6, 8) : rng.uniform_int(2, 5));
    spec.set("patients", std::to_string(patients));
    spec.set("wards", std::to_string(rng.uniform_int(1, max_wards)));
    spec.set("nurses", std::to_string(rng.uniform_int(1, 4)));
    spec.set("bus-capacity", std::to_string(rng.uniform_int(4, 64)));
    const char* jobs_choices[] = {"1", "2", "4"};
    spec.set("jobs", jobs_choices[rng.uniform_int(0, 2)]);
    const char* mixes[] = {"typical", "mixed", "high-risk"};
    spec.set("mix", mixes[rng.uniform_int(0, 2)]);
    spec.set("monitor-period-s",
             fmt_double(safe_number(rng, info, "monitor-period-s")));
    spec.set("alarm-threshold", fmt_double(rng.uniform(80.0, 95.0)));

    if (hazard) {
        // Tightest claimed-safe deadline: with deadlines near the 600 s
        // envelope top a 6-8 minute run cannot violate by construction,
        // which would make the expected-hazard check vacuous.
        spec.set("deadline-s",
                 fmt_double(info.find_knob("deadline-s")->safe_lo));
        spec.set("interlock", "off");
        spec.set("demand-per-hour", fmt_double(rng.uniform(0.0, 20.0)));
        spec.set("bolus-mg", fmt_double(rng.uniform(0.5, 2.0)));
        spec.set("storm-fraction", fmt_double(rng.uniform(0.6, 1.0)));
        spec.set("storm-bolus-mg", fmt_double(rng.uniform(6.0, 10.0)));
        spec.set("storm-at-s", fmt_double(rng.uniform(30.0, 120.0)));
    } else {
        spec.set("deadline-s",
                 fmt_double(safe_number(rng, info, "deadline-s")));
        spec.set("interlock", "local");
        spec.set("demand-per-hour", fmt_double(rng.uniform(0.0, 60.0)));
        spec.set("bolus-mg", fmt_double(rng.uniform(0.0, 10.0)));
        if (rng.bernoulli(0.5)) {
            spec.set("storm-fraction", fmt_double(rng.uniform(0.0, 1.0)));
            spec.set("storm-bolus-mg", fmt_double(rng.uniform(0.0, 10.0)));
            spec.set("storm-at-s",
                     fmt_double(rng.uniform(
                         0.0, static_cast<double>(spec.minutes) * 60.0)));
        }
    }
    return spec;
}

std::string write_repro(const std::string& dir, std::uint64_t seed,
                        std::uint64_t index, const ScenarioSpec& spec,
                        std::uint64_t fingerprint,
                        const std::string& invariant,
                        const std::string& detail) {
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/hospital-" + std::to_string(seed) +
                             "-" + std::to_string(index) + ".repro";
    testkit::write_text_file(
        path, std::string{kReproHeader} + "\n# invariant: " + invariant +
                  ": " + detail + "\nspec: " + spec.to_text() +
                  "\nfingerprint: " + sim::hex64(fingerprint) + "\n");
    return path;
}

}  // namespace

HospitalFuzzOutcome run_hospital_fuzz(const HospitalFuzzOptions& opts) {
    const ScenarioInfo& info = scenario::registry().info("hospital-small");
    HospitalFuzzOutcome out;

    for (std::uint64_t i = 0; i < opts.scenarios; ++i) {
        const ScenarioSpec spec =
            sample_spec(info, opts.seed, i, opts.hazard);
        ++out.scenarios_run;

        auto fail = [&](std::string invariant, std::string detail,
                        std::uint64_t fingerprint) {
            HospitalFuzzFailure f;
            f.spec = spec;
            f.invariant = std::move(invariant);
            f.detail = std::move(detail);
            if (!opts.repro_dir.empty()) {
                f.repro_path =
                    write_repro(opts.repro_dir, opts.seed, i, spec,
                                fingerprint, f.invariant, f.detail);
                const auto replayed = replay_hospital_repro(f.repro_path);
                f.replay_byte_identical = replayed.byte_identical;
            }
            if (opts.log) {
                opts.log("hospital fuzz " + std::to_string(i) + ": " +
                         f.invariant + ": " + f.detail + " [" +
                         spec.to_text() + "]");
            }
            out.failures.push_back(std::move(f));
        };

        RunArtifacts art;
        try {
            art = scenario::registry().run(spec);
        } catch (const std::exception& e) {
            fail("resolves-and-runs", e.what(), 0);
            continue;
        }

        // Determinism + jobs invariance: the identical spec with
        // jobs=1 must reproduce the fingerprint and every outcome
        // metric bit-exactly (wall-clock never enters the outcome).
        ScenarioSpec serial = spec;
        serial.set("jobs", "1");
        const RunArtifacts again = scenario::registry().run(serial);
        if (again.fingerprint != art.fingerprint ||
            again.outcome != art.outcome) {
            fail("jobs-invariant-report",
                 "jobs=" + *spec.find("jobs") + " report differs from "
                 "jobs=1 (fingerprints " + art.fingerprint_hex() + " vs " +
                 again.fingerprint_hex() + ")",
                 art.fingerprint);
            continue;
        }

        const double violations = art.at("deadline_violations");
        if (violations > 0) ++out.violating_specs;

        if (!opts.hazard && violations > 0) {
            fail("deadline-safe-envelope",
                 std::to_string(static_cast<std::uint64_t>(violations)) +
                     " deadline violations inside the claimed-safe "
                     "envelope",
                 art.fingerprint);
            continue;
        }

        if (opts.hazard && violations > 0 && !opts.repro_dir.empty()) {
            // Expected hazard: capture it and prove the repro file
            // replays byte-identically.
            const std::string path = write_repro(
                opts.repro_dir, opts.seed, i, spec, art.fingerprint,
                "deadline-hazard-expected",
                std::to_string(static_cast<std::uint64_t>(violations)) +
                    " deadline violations (interlock off, storm)");
            const auto replayed = replay_hospital_repro(path);
            if (!replayed.byte_identical) {
                HospitalFuzzFailure f;
                f.spec = spec;
                f.invariant = "replay-byte-identical";
                f.detail = "repro " + path + " replayed to " +
                           sim::hex64(replayed.fingerprint) +
                           ", expected " +
                           sim::hex64(replayed.expected_fingerprint);
                f.repro_path = path;
                f.replay_byte_identical = false;
                if (opts.log) {
                    opts.log("hospital fuzz " + std::to_string(i) + ": " +
                             f.invariant + ": " + f.detail);
                }
                out.failures.push_back(std::move(f));
            } else if (opts.log) {
                opts.log("hospital fuzz " + std::to_string(i) + ": " +
                         std::to_string(
                             static_cast<std::uint64_t>(violations)) +
                         " expected violations, repro replays "
                         "byte-identically: " +
                         path);
            }
        }
    }
    return out;
}

HospitalReplayResult replay_hospital_repro(const std::string& path) {
    std::ifstream is{path};
    if (!is) throw std::runtime_error{"cannot open repro: " + path};
    const auto malformed = [&path](const std::string& why) {
        return std::runtime_error{"malformed hospital repro " + path + ": " +
                                  why};
    };

    HospitalReplayResult r;
    std::string line;
    if (!std::getline(is, line) || line != kReproHeader) {
        throw malformed("missing '" + std::string{kReproHeader} + "' header");
    }
    bool have_spec = false, have_fp = false, have_inv = false;
    // Every other line is "key: value", each key at most once.
    const auto once = [&](bool& seen, std::string_view key) {
        if (seen) throw malformed("repeated '" + std::string{key} + "' line");
        seen = true;
    };
    while (std::getline(is, line)) {
        if (line.empty()) continue;
        const auto colon = line.find(": ");
        if (colon == std::string::npos) {
            throw malformed("unknown line '" + line + "'");
        }
        const std::string_view key = std::string_view{line}.substr(0, colon);
        const std::string_view value =
            std::string_view{line}.substr(colon + 2);
        if (key == "spec") {
            once(have_spec, key);
            try {
                r.spec = scenario::parse_spec(value);
            } catch (const scenario::SpecError& e) {
                throw malformed(e.what());
            }
        } else if (key == "fingerprint") {
            once(have_fp, key);
            if (!parse_fingerprint(value, r.expected_fingerprint)) {
                throw malformed("fingerprint must be 0x-prefixed hex, not '" +
                                std::string{value} + "'");
            }
        } else if (key == "# invariant") {
            once(have_inv, key);
            r.invariant = std::string{value};
        } else {
            throw malformed("unknown line '" + line + "'");
        }
    }
    if (!have_spec || !have_fp) {
        throw malformed("need 'spec: ' and 'fingerprint: ' lines");
    }

    const RunArtifacts art = scenario::registry().run(r.spec);
    r.fingerprint = art.fingerprint;
    r.byte_identical = art.fingerprint == r.expected_fingerprint;
    r.deadline_violations = art.at("deadline_violations");
    return r;
}

}  // namespace mcps::ward
