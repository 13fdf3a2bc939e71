/// \file bench_io.hpp
/// \brief Machine-readable bench output: `--json <path>` support.
///
/// Every experiment binary accepts `--json <path>` and, when given,
/// writes a flat JSON report — bench name, master seed, and a list of
/// {name, value, unit} metrics — alongside its human-readable tables.
/// The convention for tracking the perf trajectory over time:
///
///   build/bench/bench_e1_pca_interlock --json BENCH_e1_pca_interlock.json
///
/// Header-only so benches stay single-file; no third-party JSON
/// dependency (values are numbers and [A-Za-z0-9_./-] names, so the
/// writer below is sufficient).

#pragma once

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mcps::benchio {

/// True when argv contains `--quick`: the bench shrinks its workload
/// (fewer seeds/patients/procedures, shorter horizons) so the JSON
/// schema smoke test can execute every experiment binary in seconds.
/// Quick numbers are NOT the paper's numbers — only the report shape.
inline bool quick_mode(int argc, char** argv) noexcept {
    for (int i = 1; i < argc; ++i) {
        if (std::string_view{argv[i]} == "--quick") return true;
    }
    return false;
}

class JsonReporter {
public:
    /// Scans argv for `--json <path>`; reporting is a no-op without it.
    JsonReporter(int argc, char** argv, std::string bench_name)
        : bench_name_{std::move(bench_name)} {
        for (int i = 1; i < argc; ++i) {
            if (std::string_view{argv[i]} == "--json") {
                if (i + 1 >= argc) {
                    std::cerr << bench_name_ << ": --json: missing path\n";
                    std::exit(2);
                }
                path_ = argv[i + 1];
                ++i;
            }
        }
    }

    /// Reports to \p path; reporting is a no-op when it is empty.
    JsonReporter(std::string bench_name, std::string path)
        : bench_name_{std::move(bench_name)}, path_{std::move(path)} {}

    [[nodiscard]] bool enabled() const noexcept { return !path_.empty(); }

    void set_seed(std::uint64_t seed) noexcept { seed_ = seed; }

    /// Record one metric. Safe to call whether or not --json was given.
    void metric(std::string name, double value, std::string unit) {
        metrics_.push_back({std::move(name), value, std::move(unit)});
    }

    /// Write the report if --json was given. Returns false (and prints
    /// to stderr) if the file cannot be opened, written or closed.
    [[nodiscard]] bool write() const {
        if (path_.empty()) return true;
        std::ofstream out{path_};
        if (out) {
            out << "{\n  \"bench\": \"" << bench_name_ << "\",\n"
                << "  \"seed\": " << seed_ << ",\n  \"metrics\": [\n";
            for (std::size_t i = 0; i < metrics_.size(); ++i) {
                const auto& m = metrics_[i];
                // NaN/inf are not valid JSON numbers; emit null instead.
                out << "    {\"name\": \"" << m.name << "\", \"value\": ";
                if (std::isfinite(m.value)) {
                    out << m.value;
                } else {
                    out << "null";
                }
                out << ", \"unit\": \"" << m.unit << "\"}"
                    << (i + 1 < metrics_.size() ? "," : "") << "\n";
            }
            out << "  ]\n}\n";
            out.close();
        }
        if (!out) {
            std::cerr << bench_name_ << ": --json: cannot write '" << path_
                      << "'\n";
            return false;
        }
        std::cout << "json report: " << path_ << "\n";
        return true;
    }

private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::string bench_name_;
    std::string path_;
    std::uint64_t seed_ = 0;
    std::vector<Metric> metrics_;
};

}  // namespace mcps::benchio
