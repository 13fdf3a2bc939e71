/// \file event_arena.hpp
/// \brief Arena-allocated event storage for the discrete-event kernel.
///
/// The kernel's hot path used to pay two heap allocations per scheduled
/// event (a shared_ptr control block for the cancellation state and,
/// for any capture larger than std::function's tiny inline buffer, the
/// callable itself). EventArena replaces both: events live in
/// fixed-size nodes carved from chunked slabs that are recycled through
/// a free list, and callbacks are stored in a 48-byte inline buffer
/// inside the node (EventCallback), so steady-state scheduling performs
/// zero heap allocations. reset() returns every node to the free list
/// while keeping the slab memory, so a warm arena can be reused across
/// runs (ward campaigns, repeated runs).
///
/// Lifetime & determinism contract:
///  - Node memory never moves: slabs grow by whole chunks, and the
///    calendar queue threads intrusive bucket lists through the nodes'
///    `next` field, so callbacks run in place and the queue itself
///    allocates nothing per event.
///  - EventHandle outlives everything safely: handles share ownership
///    of the slab (non-atomic intrusive refcount — the kernel and its
///    handles live on one thread) and validate a per-slot generation
///    counter, so a handle whose event fired, was reset away, or whose
///    Simulation died simply reports "not pending" instead of dangling.
///  - Nothing here consults wall clocks or global RNG state; arena
///    reuse/reset cannot change event ordering (verified by the
///    kernel-label stress tests).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "time.hpp"

namespace mcps::sim {

/// Dispatch priority for events that share a timestamp. Lower value runs
/// first. Most components use Default; infrastructure that must observe a
/// consistent pre-state (e.g. trace sampling) uses Early/Late.
enum class EventPriority : std::int8_t {
    kEarly = -1,
    kDefault = 0,
    kLate = 1,
};

/// Move-only type-erased callable with a large inline buffer.
///
/// std::function's inline buffer (16 bytes on libstdc++) is too small
/// for the kernel's real callbacks — a bus delivery captures a message
/// reference, a subscription id and the bus pointer — so nearly every
/// scheduled event used to heap-allocate. EventCallback inlines up to
/// kInlineBytes of capture state directly in the event node; larger
/// callables fall back to the heap (tracked by ArenaStats so tests can
/// assert the hot paths stay inline).
class EventCallback {
public:
    static constexpr std::size_t kInlineBytes = 48;

    EventCallback() noexcept = default;
    EventCallback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, EventCallback> &&
                  !std::is_same_v<D, std::nullptr_t> &&
                  std::is_invocable_r_v<void, D&>>>
    EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
        if constexpr (fits_inline<D>()) {
            ::new (static_cast<void*>(storage_.inline_buf)) D(std::forward<F>(f));
            invoke_ = [](EventCallback* self) {
                (*std::launder(reinterpret_cast<D*>(self->storage_.inline_buf)))();
            };
            manage_ = [](Op op, EventCallback* self, EventCallback* from) {
                auto* obj = std::launder(
                    reinterpret_cast<D*>(op == Op::kMoveFrom
                                             ? from->storage_.inline_buf
                                             : self->storage_.inline_buf));
                if (op == Op::kMoveFrom) {
                    ::new (static_cast<void*>(self->storage_.inline_buf))
                        D(std::move(*obj));
                }
                obj->~D();
            };
        } else {
            storage_.heap = new D(std::forward<F>(f));
            invoke_ = [](EventCallback* self) {
                (*static_cast<D*>(self->storage_.heap))();
            };
            manage_ = [](Op op, EventCallback* self, EventCallback* from) {
                if (op == Op::kMoveFrom) {
                    self->storage_.heap = from->storage_.heap;
                } else {
                    delete static_cast<D*>(self->storage_.heap);
                }
            };
            heap_ = true;
        }
    }

    EventCallback(EventCallback&& other) noexcept { move_from(other); }
    EventCallback& operator=(EventCallback&& other) noexcept {
        if (this != &other) {
            destroy();
            move_from(other);
        }
        return *this;
    }
    EventCallback(const EventCallback&) = delete;
    EventCallback& operator=(const EventCallback&) = delete;
    ~EventCallback() { destroy(); }

    [[nodiscard]] explicit operator bool() const noexcept {
        return invoke_ != nullptr;
    }
    /// True if the callable was too large for the inline buffer.
    [[nodiscard]] bool on_heap() const noexcept { return heap_; }

    void operator()() { invoke_(this); }

    /// Destroys the held callable and returns to the empty state.
    void reset() noexcept {
        destroy();
        invoke_ = nullptr;
        manage_ = nullptr;
        heap_ = false;
    }

private:
    enum class Op : std::uint8_t { kDestroy, kMoveFrom };

    template <typename D>
    [[nodiscard]] static constexpr bool fits_inline() noexcept {
        return sizeof(D) <= kInlineBytes &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    void destroy() noexcept {
        if (manage_) manage_(Op::kDestroy, this, nullptr);
    }
    void move_from(EventCallback& other) noexcept {
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        heap_ = other.heap_;
        if (manage_) manage_(Op::kMoveFrom, this, &other);
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
        other.heap_ = false;
    }

    union Storage {
        alignas(std::max_align_t) std::byte inline_buf[kInlineBytes];
        void* heap;
    } storage_;
    void (*invoke_)(EventCallback*) = nullptr;
    void (*manage_)(Op, EventCallback*, EventCallback*) = nullptr;
    bool heap_ = false;
};

/// Sentinel slot index ("no node").
inline constexpr std::uint32_t kNoEvent = 0xFFFFFFFFu;

/// One scheduled event. Nodes live in EventSlab chunks at stable
/// addresses; the calendar queue refers to them by slot index and
/// threads its bucket lists through `next`.
struct EventNode {
    static constexpr std::uint8_t kLive = 1u << 0;
    static constexpr std::uint8_t kCancelled = 1u << 1;
    static constexpr std::uint8_t kFired = 1u << 2;

    SimTime when;
    std::uint64_t seq = 0;
    SimDuration period;  ///< zero for one-shot events
    EventCallback cb;
    std::uint32_t next = kNoEvent;  ///< intrusive calendar-bucket link
    std::uint32_t gen = 0;  ///< bumped on release; stale handles see a mismatch
    EventPriority prio = EventPriority::kDefault;
    std::uint8_t flags = 0;

    [[nodiscard]] bool periodic() const noexcept {
        return period != SimDuration::zero();
    }
};

/// Chunked node storage with stable addresses. Shared (via SlabRef)
/// between the owning EventArena and any outstanding EventHandles, so a
/// handle can always read its slot's generation even after the arena
/// (or its Simulation) is gone.
class EventSlab {
public:
    static constexpr std::uint32_t kChunkShift = 9;  ///< 512 nodes per chunk
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
    static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

    [[nodiscard]] EventNode& node(std::uint32_t idx) noexcept {
        return chunks_[idx >> kChunkShift][idx & kChunkMask];
    }
    [[nodiscard]] const EventNode& node(std::uint32_t idx) const noexcept {
        return chunks_[idx >> kChunkShift][idx & kChunkMask];
    }
    [[nodiscard]] std::uint32_t capacity() const noexcept {
        return static_cast<std::uint32_t>(chunks_.size()) * kChunkSize;
    }
    /// Appends one chunk of default-constructed (empty) nodes.
    void grow() { chunks_.push_back(std::make_unique<EventNode[]>(kChunkSize)); }

    /// Number of cancelled events still sitting in the pending queue
    /// (tombstones). Lives on the slab — not the arena — because the
    /// increment comes from EventHandle::cancel(), which only holds a
    /// SlabRef. The calendar queue's lazy compaction triggers off this
    /// count and recomputes it exactly (to zero) on every sweep, so a
    /// stale value after a Simulation dies costs at most one no-op
    /// sweep.
    [[nodiscard]] std::uint64_t cancelled_queued() const noexcept {
        return cancelled_queued_;
    }
    void note_cancelled() noexcept { ++cancelled_queued_; }
    /// Saturating: a stale-counter no-op sweep may already have zeroed it.
    void note_tombstone_popped() noexcept {
        if (cancelled_queued_ > 0) --cancelled_queued_;
    }
    void set_cancelled_queued(std::uint64_t n) noexcept {
        cancelled_queued_ = n;
    }

private:
    friend class SlabRef;
    std::vector<std::unique_ptr<EventNode[]>> chunks_;
    std::uint64_t refs_ = 0;
    std::uint64_t cancelled_queued_ = 0;
};

/// Shared ownership of an EventSlab with a NON-ATOMIC refcount.
/// Rationale: a schedule_*() call mints one handle, so an atomic
/// inc/dec pair on a shared_ptr control block was measurable on the
/// hot path. The kernel is single-threaded and handles never migrate
/// across threads (one arena per worker), so plain increments suffice.
class SlabRef {
public:
    SlabRef() noexcept = default;
    explicit SlabRef(EventSlab* slab) noexcept : slab_{slab} { retain(); }
    SlabRef(const SlabRef& o) noexcept : slab_{o.slab_} { retain(); }
    SlabRef(SlabRef&& o) noexcept : slab_{o.slab_} { o.slab_ = nullptr; }
    SlabRef& operator=(const SlabRef& o) noexcept {
        if (this != &o) {
            release();
            slab_ = o.slab_;
            retain();
        }
        return *this;
    }
    SlabRef& operator=(SlabRef&& o) noexcept {
        if (this != &o) {
            release();
            slab_ = o.slab_;
            o.slab_ = nullptr;
        }
        return *this;
    }
    ~SlabRef() { release(); }

    [[nodiscard]] EventSlab* get() const noexcept { return slab_; }
    [[nodiscard]] explicit operator bool() const noexcept {
        return slab_ != nullptr;
    }
    EventSlab* operator->() const noexcept { return slab_; }

private:
    void retain() noexcept {
        if (slab_) ++slab_->refs_;
    }
    void release() noexcept {
        if (slab_ && --slab_->refs_ == 0) delete slab_;
        slab_ = nullptr;
    }
    EventSlab* slab_ = nullptr;
};

/// Allocation counters; the kernel tests assert that a warm rerun
/// leaves heap_allocs() unchanged ("no per-event new").
struct ArenaStats {
    std::uint64_t nodes_acquired = 0;   ///< total acquire() calls
    std::uint64_t nodes_recycled = 0;   ///< acquires served by the free list
    std::uint64_t chunk_allocs = 0;     ///< slab chunks heap-allocated
    std::uint64_t heap_callbacks = 0;   ///< callables too big for inline storage
    std::uint64_t resets = 0;           ///< reset() calls
    [[nodiscard]] std::uint64_t heap_allocs() const noexcept {
        return chunk_allocs + heap_callbacks;
    }
};

/// Bump/recycle allocator for event nodes. One per Simulation by
/// default; can be constructed externally and passed to several
/// (sequential) Simulations to keep the slab warm across runs.
/// Not thread-safe — one arena per worker thread, like the kernel.
class EventArena {
public:
    EventArena() : slab_{new EventSlab} {}
    EventArena(const EventArena&) = delete;
    EventArena& operator=(const EventArena&) = delete;
    ~EventArena() { release_all(); }

    /// Returns a live (flags=kLive, callback-empty) node's slot index.
    std::uint32_t acquire() {
        ++stats_.nodes_acquired;
        std::uint32_t idx;
        if (!free_.empty()) {
            ++stats_.nodes_recycled;
            idx = free_.back();
            free_.pop_back();
        } else {
            if (next_fresh_ >= slab_->capacity()) {
                slab_->grow();
                ++stats_.chunk_allocs;
            }
            idx = next_fresh_++;
        }
        EventNode& n = slab_->node(idx);
        n.flags = EventNode::kLive;
        n.period = SimDuration::zero();
        ++live_;
        return idx;
    }

    /// Destroys the node's callback, invalidates handles, recycles the slot.
    void release(std::uint32_t idx) noexcept {
        EventNode& n = slab_->node(idx);
        n.cb.reset();
        n.flags = 0;
        ++n.gen;
        --live_;
        free_.push_back(idx);
    }

    /// Notes that a callback landed on the heap (stats hook; the
    /// Simulation calls this after emplacing the callback).
    void note_heap_callback() noexcept { ++stats_.heap_callbacks; }

    /// Releases every live node but keeps the slab memory and free
    /// list, so the next run re-uses warm chunks. All handles from
    /// before the reset become "not pending". Must not be called while
    /// a Simulation still uses this arena.
    void reset() noexcept {
        release_all();
        ++stats_.resets;
    }

    [[nodiscard]] EventNode& node(std::uint32_t idx) noexcept {
        return slab_->node(idx);
    }
    [[nodiscard]] const SlabRef& slab() const noexcept { return slab_; }
    [[nodiscard]] const ArenaStats& stats() const noexcept { return stats_; }
    [[nodiscard]] std::uint64_t live_nodes() const noexcept { return live_; }

private:
    void release_all() noexcept {
        slab_->set_cancelled_queued(0);
        if (live_ == 0) return;
        for (std::uint32_t idx = 0; idx < next_fresh_; ++idx) {
            EventNode& n = slab_->node(idx);
            if ((n.flags & EventNode::kLive) != 0) {
                n.cb.reset();
                n.flags = 0;
                ++n.gen;
                free_.push_back(idx);
            }
        }
        live_ = 0;
    }

    SlabRef slab_;
    std::vector<std::uint32_t> free_;
    std::uint32_t next_fresh_ = 0;
    std::uint64_t live_ = 0;
    ArenaStats stats_;
};

}  // namespace mcps::sim
