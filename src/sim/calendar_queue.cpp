#include "calendar_queue.hpp"

#include <algorithm>
#include <limits>

namespace mcps::sim {

namespace {
constexpr std::size_t kMinBuckets = 16;
/// Grow when average occupancy would exceed 2. Growth quadruples the
/// bucket count: every resize re-links the whole population, so a 4x
/// step caps total relink work at ~1.33x the peak population (vs 2x
/// for doubling). The queue never shrinks within a run — a shrink is
/// another full relink sweep, and the only thing retained by staying
/// large is the heads array (4 bytes per bucket), which is bounded by
/// the run's peak event population.
constexpr std::size_t kGrowOccupancy = 2;
constexpr std::size_t kGrowFactor = 4;
/// Consumed drain entries tolerated before an insert trims them.
constexpr std::size_t kDrainTrim = 256;
}  // namespace

CalendarQueue::CalendarQueue(EventArena& arena)
    : arena_{&arena}, heads_(kMinBuckets, kNoEvent), mask_{kMinBuckets - 1} {}

void CalendarQueue::push(std::uint32_t idx) {
    maybe_grow();
    const EventNode& n = arena_->node(idx);
    const Entry e = key_of(n, idx);
    const std::uint64_t q = quot(e.when);
    if (drain_valid_ && q == cursor_) {
        // Same bucket-year as the instant being dispatched (typical for
        // zero-delay follow-ups like ideal-channel bus deliveries).
        // Keep the drain sorted; new events carry fresh (larger)
        // sequence numbers, so this append is O(1) in the common case.
        // A wide bucket-year can keep the drain open for many pops; drop
        // the consumed prefix now and then so it holds only live keys.
        if (drain_head_ >= kDrainTrim) {
            const auto consumed = static_cast<std::ptrdiff_t>(drain_head_);
            drain_.erase(drain_.begin(), drain_.begin() + consumed);
            drain_head_ = 0;
        }
        const auto it = std::upper_bound(
            drain_.begin() + static_cast<std::ptrdiff_t>(drain_head_),
            drain_.end(), e,
            [](const Entry& a, const Entry& b) { return less(a, b); });
        drain_.insert(it, e);
    } else {
        if (q < cursor_) {
            // Rewind: an event landed before the current drain year
            // (possible after the cursor coasted over empty buckets
            // looking for a minimum beyond the run limit).
            flush_drain();
            cursor_ = q;
        }
        link(idx, q);
    }
    ++size_;
}

std::optional<CalendarQueue::Entry> CalendarQueue::pop_if_at_most(
    std::int64_t limit) {
    if (size_ == 0) return std::nullopt;

    if (!drain_valid_ || drain_head_ >= drain_.size()) {
        // Advance the cursor to the next bucket-year holding events: at
        // most one lap over the buckets. A lap that finds nothing means
        // the width no longer fits the live traffic (the next event lies
        // a year or more past the cursor), so re-derive the width from
        // the live span instead of coasting; the re-width leaves the
        // cursor on the minimum's bucket-year.
        if (drain_valid_) {
            drain_.clear();
            drain_head_ = 0;
            ++cursor_;
            drain_valid_ = false;
        }
        bool found = false;
        for (std::size_t step = 0; step <= mask_; ++step) {
            if (fill_drain()) {
                found = true;
                break;
            }
            ++cursor_;
        }
        if (!found) {
            resize(heads_.size());
            ++rewidths_;
            fill_drain();  // size_ > 0, so this bucket-year is non-empty
        }
        drain_valid_ = true;
    }

    const Entry e = drain_[drain_head_];
    if (e.when > limit) return std::nullopt;
    ++drain_head_;
    if (drain_head_ >= drain_.size()) {
        drain_.clear();
        drain_head_ = 0;
    }
    --size_;
    last_popped_ = e.when;
    return e;
}

std::size_t CalendarQueue::compact() {
    std::size_t removed = 0;
    for (std::uint32_t& head : heads_) {
        std::uint32_t* slot = &head;
        while (*slot != kNoEvent) {
            EventNode& n = arena_->node(*slot);
            if ((n.flags & EventNode::kCancelled) != 0) {
                const std::uint32_t idx = *slot;
                *slot = n.next;
                arena_->release(idx);
                ++removed;
            } else {
                slot = &n.next;
            }
        }
    }
    if (drain_valid_ && drain_head_ < drain_.size()) {
        std::size_t w = drain_head_;
        for (std::size_t r = drain_head_; r < drain_.size(); ++r) {
            const Entry e = drain_[r];
            if ((arena_->node(e.idx).flags & EventNode::kCancelled) != 0) {
                arena_->release(e.idx);
                ++removed;
            } else {
                drain_[w++] = e;
            }
        }
        drain_.resize(w);
        if (drain_head_ >= drain_.size()) {
            drain_.clear();
            drain_head_ = 0;
        }
    }
    size_ -= removed;
    ++compactions_;
    tombstones_compacted_ += removed;
    // Every queued tombstone is gone; recomputing (rather than
    // subtracting) self-heals a count left stale by a previous
    // Simulation sharing this arena.
    arena_->slab()->set_cancelled_queued(0);
    return removed;
}

bool CalendarQueue::fill_drain() {
    std::uint32_t* slot = &heads_[static_cast<std::size_t>(cursor_) & mask_];
    while (*slot != kNoEvent) {
        EventNode& n = arena_->node(*slot);
        if (quot(n.when.ticks()) == cursor_) {
            drain_.push_back(key_of(n, *slot));
            *slot = n.next;  // unlink
        } else {
            slot = &n.next;
        }
    }
    if (drain_.empty()) return false;
    if (drain_.size() > 1) {
        std::sort(drain_.begin(), drain_.end(),
                  [](const Entry& a, const Entry& b) { return less(a, b); });
    }
    return true;
}

void CalendarQueue::flush_drain() {
    for (std::size_t i = drain_head_; i < drain_.size(); ++i) {
        const Entry& e = drain_[i];
        link(e.idx, quot(e.when));
    }
    drain_.clear();
    drain_head_ = 0;
    drain_valid_ = false;
}

void CalendarQueue::maybe_grow() {
    if (size_ + 1 > kGrowOccupancy * heads_.size()) {
        resize(heads_.size() * kGrowFactor);
    }
}

void CalendarQueue::resize(std::size_t new_bucket_count) {
    flush_drain();
    // Collect the live chain heads, then re-link every node under the
    // new geometry. No node state is copied — this is pointer churn
    // proportional to the population.
    scratch_.clear();
    scratch_.reserve(size_);
    for (std::uint32_t& head : heads_) {
        std::uint32_t i = head;
        while (i != kNoEvent) {
            scratch_.push_back(i);
            i = arena_->node(i).next;
        }
        head = kNoEvent;
    }
    heads_.assign(new_bucket_count, kNoEvent);
    mask_ = new_bucket_count - 1;

    if (scratch_.empty()) {
        cursor_ = 0;
        width_shift_ = 0;
        return;
    }
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = std::numeric_limits<std::int64_t>::min();
    for (const std::uint32_t i : scratch_) {
        const std::int64_t w = arena_->node(i).when.ticks();
        lo = std::min(lo, w);
        hi = std::max(hi, w);
    }
    // Width ~= mean inter-event gap rounded up to a power of two, so
    // quot() is a shift (a 64-bit divide per push/pop was measurable)
    // and expected occupancy stays O(1) while one "year"
    // (nbuckets * width) spans the live horizon. Order never depends
    // on this choice. The span runs from the last pop (the queue's
    // "now"), not from the earliest live event: with every pending
    // event at one instant (a lone periodic source, or N sources in
    // phase) the live span is zero, and a 1-tick width would fail the
    // next lap again — the gap up to that instant is the one to size
    // for. (A rewound standalone queue can hold events before the last
    // pop, hence the min.)
    const std::int64_t from = std::min(lo, last_popped_);
    const std::uint64_t ideal = static_cast<std::uint64_t>(hi - from) /
                                    static_cast<std::uint64_t>(scratch_.size()) +
                                1;
    width_shift_ = 0;
    while ((std::uint64_t{1} << width_shift_) < ideal) ++width_shift_;
    cursor_ = quot(lo);
    for (const std::uint32_t i : scratch_) {
        link(i, quot(arena_->node(i).when.ticks()));
    }
}

}  // namespace mcps::sim
