#include "event_log.hpp"

#include <bit>
#include <functional>
#include <limits>

#include "sim/hash.hpp"

namespace mcps::obs {

using mcps::sim::kFnvOffset;
using mcps::sim::mix;
using mcps::sim::mix_string;

namespace {

std::size_t hash_of(std::string_view text) noexcept {
    return std::hash<std::string_view>{}(text);
}

}  // namespace

void EventLog::emit(EventKind kind, mcps::sim::SimTime time,
                    std::string_view source, std::string_view detail,
                    double value) {
    const SymbolId s = intern(source);
    events_.push_back(Event{kind, time, s, intern(detail), value});
}

SymbolId EventLog::intern(std::string_view text) {
    if (slots_.empty()) grow_slots();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash_of(text) & mask;
    for (; slots_[i] != 0; i = (i + 1) & mask) {
        const SymbolId id = slots_[i] - 1;
        if (symbol(id) == text) return id;
    }
    const auto id = static_cast<SymbolId>(symbol_count());
    text_.append(text);
    ends_.push_back(text_.size());
    slots_[i] = id + 1;
    if (2 * symbol_count() > slots_.size()) grow_slots();
    return id;
}

void EventLog::grow_slots() {
    slots_.assign(slots_.empty() ? 64 : 2 * slots_.size(), 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t id = 0; id < symbol_count(); ++id) {
        std::size_t i = hash_of(symbol(static_cast<SymbolId>(id))) & mask;
        while (slots_[i] != 0) i = (i + 1) & mask;
        slots_[i] = static_cast<SymbolId>(id + 1);
    }
}

void EventLog::clear() noexcept {
    events_.clear();
    text_.clear();
    ends_.clear();
    slots_.clear();
}

void EventLog::append(const EventLog& other) {
    constexpr SymbolId kUnmapped = std::numeric_limits<SymbolId>::max();
    std::vector<SymbolId> map(other.symbol_count(), kUnmapped);
    const auto remap = [&](SymbolId id) {
        if (map[id] == kUnmapped) map[id] = intern(other.symbol(id));
        return map[id];
    };
    // Indexed, not iterated: `other` may be this log.
    const std::size_t n = other.events_.size();
    events_.reserve(events_.size() + n);
    for (std::size_t i = 0; i < n; ++i) {
        Event e = other.events_[i];
        e.source = remap(e.source);
        e.detail = remap(e.detail);
        events_.push_back(e);
    }
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
        h = mix_string(h, symbol(e.source));
        h = mix_string(h, symbol(e.detail));
        h = mix(h, std::bit_cast<std::uint64_t>(e.value));
    }
    return h;
}

bool operator==(const EventLog& a, const EventLog& b) noexcept {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const Event& x = a.events_[i];
        const Event& y = b.events_[i];
        if (x.kind != y.kind || x.time != y.time ||
            std::bit_cast<std::uint64_t>(x.value) !=
                std::bit_cast<std::uint64_t>(y.value) ||
            a.symbol(x.source) != b.symbol(y.source) ||
            a.symbol(x.detail) != b.symbol(y.detail)) {
            return false;
        }
    }
    return true;
}

}  // namespace mcps::obs
