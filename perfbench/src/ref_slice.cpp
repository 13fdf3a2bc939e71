#include "ref_slice.hpp"

#include <cmath>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

namespace perfbench {

namespace {

struct Event {
    double when;
    std::uint64_t seq;
    std::uint32_t handler;
};

struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
};

}  // namespace

double run_reference_slice(std::uint64_t events) {
    static const char* const kMetrics[] = {"spo2", "etco2", "resp_rate",
                                           "heart_rate", "pump_rate",
                                           "interlock"};
    static const double kPeriods[] = {1.0, 1.0, 2.0, 1.0, 5.0, 0.5};
    constexpr std::uint32_t kSources = 6;

    std::map<std::string, double> signals;
    std::priority_queue<Event, std::vector<Event>, Later> queue;
    std::vector<std::function<double(double)>> handlers;
    std::uint64_t seq = 0;
    double checksum = 0.0;

    for (std::uint32_t i = 0; i < kSources; ++i) {
        handlers.emplace_back([&signals, i](double now) {
            const std::string topic =
                std::string{"vitals/bed1/"} + kMetrics[i];
            double& mine = signals[topic];
            const double other =
                signals[std::string{"vitals/bed1/"} +
                        kMetrics[(i + 1) % kSources]];
            mine = 0.9 * mine + 0.1 * std::exp(-0.001 * now) * (1.0 + other);
            return mine;
        });
        queue.push(Event{kPeriods[i] * 0.5, seq++, i});
    }
    for (std::uint64_t n = 0; n < events; ++n) {
        const Event ev = queue.top();
        queue.pop();
        checksum += handlers[ev.handler](ev.when);
        queue.push(Event{ev.when + kPeriods[ev.handler], seq++, ev.handler});
    }
    return checksum;
}

}  // namespace perfbench
