/// \file calendar_queue.hpp
/// \brief Calendar queue: the kernel's O(1) pending-event set.
///
/// Replaces the std::priority_queue (binary heap) scheduler. Physio and
/// bus traffic schedules mostly-monotone timestamps a short horizon
/// ahead, which is the distribution calendar queues were designed for
/// (R. Brown, CACM 1988): events hash into year-of-buckets by
/// timestamp, so enqueue and dequeue are amortized O(1) instead of the
/// heap's O(log n) with heavyweight node moves.
///
/// Determinism contract: dequeue order is EXACTLY ascending
/// (when, priority, sequence) — the same total order the heap's
/// comparator produced — regardless of bucket geometry, resizes, or
/// insertion order. Bucket width/count only affect speed, never order,
/// so the golden traces and ward fingerprints are byte-identical across
/// the swap (enforced by the kernel-label differential tests).
///
/// Layout (zero allocations per event):
///  - buckets are intrusive singly-linked lists threaded through the
///    arena nodes' `next` field; `heads_` holds one 32-bit slot index
///    per bucket, so pushing an event writes two words and allocates
///    nothing. An event at timestamp t lives in bucket
///    (t / width) % nbuckets.
///  - `drain_`: the (when, prio, seq, idx) keys of the bucket-year
///    currently being dispatched, sorted ascending with a moving head
///    so each pop is O(1); same-instant follow-up events (e.g.
///    ideal-channel bus deliveries) binary-insert into it, which is an
///    O(1) append in the common case because fresh events carry larger
///    sequence numbers.
///  - resize grows the bucket count as the population grows and
///    re-derives the width from the live timestamp span; entries are
///    re-linked in place (pointer churn only, no copies of node
///    state). Geometry never shrinks within a run: a shrink would be
///    another full relink sweep, bought back only a few bytes of
///    bucket-head storage.
///  - re-width: advancing the cursor probes at most one lap of
///    buckets. A lap that finds no event means the width is wrong for
///    the live traffic (a small population never crosses the grow
///    threshold, so it would otherwise keep its start-up 1-tick width
///    while its events lie seconds apart). The queue then re-derives
///    the width from the span between the last pop and the latest
///    pending event, at the same bucket count (Brown's rule), and
///    lands the cursor on the minimum's bucket-year. That costs
///    O(buckets + population), the order of the global-minimum scan it
///    replaces. A year then covers at least half the live span, so
///    the next lap succeeds unless the traffic's spacing itself
///    changes: a steady workload re-widths a few times per run, not
///    once per pop.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "event_arena.hpp"

namespace mcps::sim {

/// The pending-event set, keyed by (when, priority, sequence). Entries
/// are arena slot indices; the queue threads its bucket lists through
/// the nodes' `next` field and never allocates per event.
class CalendarQueue {
public:
    /// Pop-order key snapshot of a queued node (what pop returns).
    struct Entry {
        std::int64_t when = 0;   ///< timestamp in ticks (must be >= 0)
        std::uint64_t seq = 0;   ///< unique; FIFO tie-breaker
        std::uint32_t idx = 0;   ///< arena slot
        std::int8_t prio = 0;    ///< EventPriority raw value
    };

    /// \param arena backing node storage; must outlive the queue. The
    ///   queue owns the `next` field of every node pushed into it.
    explicit CalendarQueue(EventArena& arena);

    /// Enqueues the arena node at \p idx. Its when/seq/prio fields must
    /// already be set and must not change while queued.
    void push(std::uint32_t idx);

    /// Removes and returns the minimum entry if its timestamp is
    /// <= \p limit; std::nullopt if the queue is empty or the minimum
    /// lies beyond the limit (the queue is left untouched).
    std::optional<Entry> pop_if_at_most(std::int64_t limit);

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    /// Bucket-count snapshot (resize policy introspection for tests).
    [[nodiscard]] std::size_t bucket_count() const noexcept {
        return heads_.size();
    }

    /// Sweeps every bucket (and the active drain) and removes entries
    /// whose node carries EventNode::kCancelled, releasing their arena
    /// slots. Removed events would never have run their callbacks, so
    /// dispatch order of live events is unchanged — this only bounds the
    /// tombstone pops a cancel-heavy workload would otherwise pay one by
    /// one. Resets the slab's cancelled_queued count to the exact
    /// remaining value (zero). Returns the number of entries removed.
    std::size_t compact();

    /// Number of compact() sweeps performed (bench/test introspection).
    [[nodiscard]] std::uint64_t compactions() const noexcept {
        return compactions_;
    }
    /// Total tombstones removed by compact() sweeps.
    [[nodiscard]] std::uint64_t tombstones_compacted() const noexcept {
        return tombstones_compacted_;
    }
    /// Number of re-widths: pops whose lap over the buckets found no
    /// event and re-derived the bucket width instead (bench/test
    /// introspection; stays O(log horizon) on a steady workload).
    [[nodiscard]] std::uint64_t rewidths() const noexcept {
        return rewidths_;
    }

private:
    /// Strict (when, prio, seq) order — identical to the heap comparator
    /// this queue replaced.
    [[nodiscard]] static bool less(const Entry& a, const Entry& b) noexcept {
        if (a.when != b.when) return a.when < b.when;
        if (a.prio != b.prio) return a.prio < b.prio;
        return a.seq < b.seq;
    }

    [[nodiscard]] static Entry key_of(const EventNode& n,
                                      std::uint32_t idx) noexcept {
        return Entry{n.when.ticks(), n.seq, idx,
                     static_cast<std::int8_t>(n.prio)};
    }

    [[nodiscard]] std::uint64_t quot(std::int64_t when) const noexcept {
        return static_cast<std::uint64_t>(when) >> width_shift_;
    }

    void link(std::uint32_t idx, std::uint64_t q) noexcept {
        EventNode& n = arena_->node(idx);
        auto& head = heads_[static_cast<std::size_t>(q) & mask_];
        n.next = head;
        head = idx;
    }

    /// Moves every current-cursor entry from its bucket into drain_
    /// (sorted ascending). Returns true if drain_ is non-empty after.
    bool fill_drain();
    /// Re-links drain_ entries into their home bucket (cursor rewind or
    /// resize paths).
    void flush_drain();
    void resize(std::size_t new_bucket_count);
    void maybe_grow();

    EventArena* arena_;
    std::vector<std::uint32_t> heads_;  ///< bucket heads (kNoEvent = empty)
    std::vector<std::uint32_t> scratch_;  ///< resize relink buffer (kept warm)
    std::vector<Entry> drain_;       ///< quot == cursor_, sorted ascending
    std::size_t drain_head_ = 0;     ///< next drain_ entry to pop
    std::uint32_t width_shift_ = 0;  ///< log2(ticks per bucket)
    std::uint64_t cursor_ = 0;       ///< quotient currently being drained
    bool drain_valid_ = false;       ///< drain_ holds cursor_'s entries
    std::size_t mask_ = 0;           ///< heads_.size() - 1 (power of two)
    std::size_t size_ = 0;
    std::int64_t last_popped_ = 0;  ///< timestamp of the latest pop
    std::uint64_t compactions_ = 0;
    std::uint64_t tombstones_compacted_ = 0;
    std::uint64_t rewidths_ = 0;
};

}  // namespace mcps::sim
