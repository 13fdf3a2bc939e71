#include "artifacts.hpp"

#include <cmath>
#include <ostream>

#include "sim/hash.hpp"
#include "sim/table.hpp"

namespace mcps::scenario {

const double* RunArtifacts::find(std::string_view name) const {
    for (const auto& [k, v] : outcome) {
        if (k == name) return &v;
    }
    return nullptr;
}

double RunArtifacts::at(std::string_view name) const {
    if (const double* v = find(name)) return *v;
    throw SpecError{"run artifacts: no outcome metric '" +
                    std::string{name} + "'"};
}

std::string RunArtifacts::fingerprint_hex() const {
    return sim::hex64(fingerprint);
}

void RunArtifacts::print(std::ostream& os) const {
    mcps::sim::Table t{{"metric", "value"}};
    for (const auto& [k, v] : outcome) {
        // Integral outcomes render without a fraction.
        if (v == std::floor(v) && std::abs(v) < 1e15) {
            t.row().cell(k).cell(static_cast<std::int64_t>(v));
        } else {
            t.row().cell(k).cell(v, 3);
        }
    }
    t.print(os, "scenario '" + spec.name + "' (fingerprint " +
                    fingerprint_hex() + ")");
}

void RunArtifacts::write_json(std::ostream& os) const {
    os << "{\n  \"spec\": " << spec.to_json() << ",\n  \"fingerprint\": \""
       << fingerprint_hex() << "\",\n  \"outcome\": {\n";
    for (std::size_t i = 0; i < outcome.size(); ++i) {
        os << "    \"" << outcome[i].first << "\": ";
        if (std::isfinite(outcome[i].second)) {
            os << outcome[i].second;
        } else {
            os << "null";
        }
        os << (i + 1 < outcome.size() ? ",\n" : "\n");
    }
    os << "  }\n}\n";
}

}  // namespace mcps::scenario
