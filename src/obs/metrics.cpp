#include "metrics.hpp"

#include <bit>
#include <ostream>
#include <stdexcept>

#include "format.hpp"
#include "json.hpp"
#include "sim/hash.hpp"
#include "sim/table.hpp"

namespace mcps::obs {

using mcps::sim::kFnvOffset;
using mcps::sim::mix;
using mcps::sim::mix_string;

Counter& MetricsRegistry::counter(const std::string& name) {
    return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
    return gauges_[name];
}

mcps::sim::Histogram& MetricsRegistry::histogram(const std::string& name,
                                                 double lo, double hi,
                                                 std::size_t bins) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(name, mcps::sim::Histogram{lo, hi, bins})
                 .first;
    } else if (!it->second.same_binning(mcps::sim::Histogram{lo, hi, bins})) {
        throw std::invalid_argument("MetricsRegistry: histogram '" + name +
                                    "' re-requested with different binning");
    }
    return it->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : &it->second;
}

const mcps::sim::Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& o) {
    for (const auto& [name, c] : o.counters_) {
        counters_[name].add(c.value());
    }
    for (const auto& [name, g] : o.gauges_) {
        gauges_[name].merge(g);
    }
    for (const auto& [name, h] : o.histograms_) {
        auto it = histograms_.find(name);
        if (it == histograms_.end()) {
            histograms_.emplace(name, h);
        } else {
            it->second.merge(h);  // throws on binning mismatch
        }
    }
}

void MetricsRegistry::write_table(std::ostream& os) const {
    if (!counters_.empty()) {
        mcps::sim::Table t{{"counter", "value"}};
        for (const auto& [name, c] : counters_) {
            t.row().cell(name).cell(c.value());
        }
        t.print(os, "counters");
        os << '\n';
    }
    if (!gauges_.empty()) {
        mcps::sim::Table t{{"gauge", "value"}};
        for (const auto& [name, g] : gauges_) {
            t.row().cell(name).cell(g.value(), 3);
        }
        t.print(os, "gauges");
        os << '\n';
    }
    if (!histograms_.empty()) {
        mcps::sim::Table t{{"histogram", "count", "p50", "p95", "p99"}};
        for (const auto& [name, h] : histograms_) {
            t.row()
                .cell(name)
                .cell(h.total())
                .cell(h.total() ? h.quantile(0.50) : 0.0, 3)
                .cell(h.total() ? h.quantile(0.95) : 0.0, 3)
                .cell(h.total() ? h.quantile(0.99) : 0.0, 3);
        }
        t.print(os, "histograms");
        os << '\n';
    }
}

void MetricsRegistry::write_json(std::ostream& os) const {
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : counters_) {
        os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
           << "\": " << c.value();
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : gauges_) {
        os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
           << "\": " << format_number(g.value());
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
        os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
           << "\": {\"total\": " << h.total()
           << ", \"underflow\": " << h.underflow()
           << ", \"overflow\": " << h.overflow() << ", \"counts\": [";
        for (std::size_t i = 0; i < h.bins(); ++i) {
            os << (i ? "," : "") << h.bin_count(i);
        }
        os << "]}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
}

std::uint64_t MetricsRegistry::fingerprint() const noexcept {
    std::uint64_t h = kFnvOffset;
    for (const auto& [name, c] : counters_) {
        h = mix_string(h, name);
        h = mix(h, c.value());
    }
    for (const auto& [name, g] : gauges_) {
        h = mix_string(h, name);
        h = mix(h, std::bit_cast<std::uint64_t>(g.value()));
        h = mix(h, g.sets());
    }
    for (const auto& [name, hist] : histograms_) {
        h = mix_string(h, name);
        h = mix(h, hist.underflow());
        h = mix(h, hist.overflow());
        for (std::size_t i = 0; i < hist.bins(); ++i) {
            h = mix(h, hist.bin_count(i));
        }
    }
    return h;
}

}  // namespace mcps::obs
