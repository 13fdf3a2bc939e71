#include "event_log.hpp"

#include <bit>

#include "sim/hash.hpp"

namespace mcps::obs {

using mcps::sim::kFnvOffset;
using mcps::sim::mix;
using mcps::sim::mix_string;

void EventLog::append(const EventLog& other) {
    events_.insert(events_.end(), other.events_.begin(), other.events_.end());
}

std::size_t EventLog::count(EventKind k) const noexcept {
    std::size_t n = 0;
    for (const auto& e : events_) {
        if (e.kind == k) ++n;
    }
    return n;
}

std::uint64_t EventLog::fingerprint() const noexcept {
    std::uint64_t h = kFnvOffset;
    for (const auto& e : events_) {
        h = mix(h, static_cast<std::uint64_t>(e.kind));
        h = mix(h, static_cast<std::uint64_t>(e.time.ticks()));
        h = mix_string(h, e.source);
        h = mix_string(h, e.detail);
        h = mix(h, std::bit_cast<std::uint64_t>(e.value));
    }
    return h;
}

}  // namespace mcps::obs
