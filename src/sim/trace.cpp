#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace mcps::sim {

void Signal::record(SimTime t, double value) {
    if (std::isnan(value)) {
        throw std::invalid_argument("Signal '" + name_ +
                                    "': NaN sample value at " + t.to_string());
    }
    if (!samples_.empty() && t < samples_.back().time) {
        throw std::invalid_argument("Signal '" + name_ +
                                    "': sample time going backwards (" +
                                    t.to_string() + " < " +
                                    samples_.back().time.to_string() + ")");
    }
    samples_.push_back(TraceSample{t, value});
}

std::optional<double> Signal::last() const noexcept {
    if (samples_.empty()) return std::nullopt;
    return samples_.back().value;
}

std::optional<double> Signal::value_at(SimTime t) const noexcept {
    // upper_bound of t, then step back: most recent sample at or before t.
    auto it = std::upper_bound(
        samples_.begin(), samples_.end(), t,
        [](SimTime lhs, const TraceSample& s) { return lhs < s.time; });
    if (it == samples_.begin()) return std::nullopt;
    return std::prev(it)->value;
}

std::optional<double> Signal::min_in(SimTime from, SimTime to) const {
    std::optional<double> best;
    for (const auto& s : samples_) {
        if (s.time < from) continue;
        if (s.time > to) break;
        if (!best || s.value < *best) best = s.value;
    }
    return best;
}

std::optional<double> Signal::max_in(SimTime from, SimTime to) const {
    std::optional<double> best;
    for (const auto& s : samples_) {
        if (s.time < from) continue;
        if (s.time > to) break;
        if (!best || s.value > *best) best = s.value;
    }
    return best;
}

RunningStats Signal::stats() const {
    RunningStats st;
    for (const auto& s : samples_) st.add(s.value);
    return st;
}

Signal& TraceRecorder::signal(const std::string& name, SimDuration period) {
    const auto [it, created] = signals_.try_emplace(name, name);
    if (created && horizon_ > SimDuration::zero() &&
        period > SimDuration::zero()) {
        constexpr std::int64_t kMaxReserved = std::int64_t{1} << 18;
        it->second.reserve(static_cast<std::size_t>(std::min(
            horizon_.ticks() / period.ticks() + 1, kMaxReserved)));
    }
    return it->second;
}

const Signal* TraceRecorder::find(const std::string& name) const noexcept {
    auto it = signals_.find(name);
    return it == signals_.end() ? nullptr : &it->second;
}

std::vector<std::string> TraceRecorder::signal_names() const {
    std::vector<std::string> names;
    names.reserve(signals_.size());
    for (const auto& [name, sig] : signals_) names.push_back(name);
    return names;
}

void TraceRecorder::write_csv(std::ostream& os) const {
    os << "time_s,signal,value\n";
    for (const auto& [name, sig] : signals_) {
        for (const auto& s : sig.samples()) {
            os << s.time.to_seconds() << ',' << name << ',' << s.value << '\n';
        }
    }
}

}  // namespace mcps::sim
