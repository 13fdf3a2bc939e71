/// \file event_log.hpp
/// \brief Append-only structured event log with a determinism contract.
///
/// An EventLog records Events in emission order. Within one scenario the
/// simulation kernel is single-threaded, so emission order is a pure
/// function of (seed, config); across ward shards, each shard owns a
/// private log that the engine appends in shard order — which makes the
/// merged log bit-identical for ANY `--jobs`, the same argument the
/// WardReport fingerprint makes for statistics.
///
/// Source and detail text is interned into the log's symbol table: ids
/// are assigned in first-appearance order (source before detail within
/// one event), so they are as deterministic as the events themselves,
/// and an emit copies no string once its symbols are known.
///
/// Every pca and x-ray run records into a log: the caller's when one is
/// given, else one the scenario owns. Only the bus, whose traffic is
/// most of a log's volume, records solely into a caller's log.

#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "event.hpp"

namespace mcps::obs {

class EventLog {
public:
    EventLog() = default;

    /// Append one event. `time` is the event's simulated instant; it
    /// need not be monotone across the log (fault windows are emitted at
    /// arm time, ward shards restart the clock), only deterministic.
    /// Out of line, so the events-off sites it would be inlined into
    /// (Bus::publish among them) keep their size.
    void emit(EventKind kind, mcps::sim::SimTime time, std::string_view source,
              std::string_view detail, double value = 0.0);
    /// Append an event whose source and detail came from this log's
    /// intern(). \throws std::out_of_range for an id outside the table.
    void emit(const Event& e) {
        if (e.source >= symbol_count() || e.detail >= symbol_count()) {
            throw std::out_of_range{"EventLog::emit: unknown symbol id"};
        }
        events_.push_back(e);
    }

    /// The id of \p text, adding it to the symbol table if it is new.
    SymbolId intern(std::string_view text);
    /// The text of a symbol id. The view lives until the next intern()
    /// that adds a symbol.
    [[nodiscard]] std::string_view symbol(SymbolId id) const noexcept {
        const std::size_t begin = id == 0 ? 0 : ends_[id - 1];
        return std::string_view{text_}.substr(begin, ends_[id] - begin);
    }
    [[nodiscard]] std::size_t symbol_count() const noexcept {
        return ends_.size();
    }

    [[nodiscard]] const std::vector<Event>& events() const noexcept {
        return events_;
    }
    [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
    [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
    /// Drops the events and the symbol table.
    void clear() noexcept;
    void reserve(std::size_t n) { events_.reserve(n); }

    /// Append another log's events after this one's (shard-order merge).
    /// Ids are remapped as if each event had been emitted here.
    void append(const EventLog& other);

    /// Number of events of one kind.
    [[nodiscard]] std::size_t count(EventKind k) const noexcept;

    /// Order- and value-exact 64-bit digest of the whole log. Two logs
    /// fingerprint equal iff their JSONL serializations are identical.
    [[nodiscard]] std::uint64_t fingerprint() const noexcept;

    /// Same events with the same text, whatever the two symbol tables.
    friend bool operator==(const EventLog& a, const EventLog& b) noexcept;

private:
    void grow_slots();

    std::vector<Event> events_;
    /// The symbols back to back; symbol i ends at ends_[i] and starts
    /// where symbol i - 1 ends.
    std::string text_;
    std::vector<std::size_t> ends_;
    /// Open-addressed index over the symbols: id + 1, or 0 for empty.
    /// The size is zero or a power of two, at most half full.
    std::vector<SymbolId> slots_;
};

}  // namespace mcps::obs
