/// \file message_pool.hpp
/// \brief Slot-recycled allocation for in-flight bus messages.
///
/// Bus::publish used to heap-allocate a shared_ptr<Message> per publish
/// (plus a control block, plus fresh std::string buffers for the
/// envelope), and every delivery lambda paid two atomic refcount ops.
/// The pool removes all of that from the steady-state path:
///  - Message slots live in a std::deque (stable addresses) and are
///    recycled through a free list, so after warm-up a publish performs
///    no slot allocation and envelope strings reuse their old capacity;
///  - MessageRef is a NON-ATOMIC intrusive refcount (same contract as
///    the sim kernel's SlabRef: one bus per simulation thread, refs
///    never cross threads), so handing the message to 64 delivery
///    events costs 64 plain increments;
///  - the pool state is itself refcounted by the outstanding refs, so
///    deliveries still in the kernel's queue stay valid even if the Bus
///    is destroyed before the Simulation drains.
///
/// MessagePoolStats mirrors the kernel's ArenaStats: the bus tests
/// assert that steady-state publishing recycles slots instead of
/// allocating.

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "message.hpp"

namespace mcps::net {

/// Slot allocation and recycling counters.
struct MessagePoolStats {
    std::uint64_t acquired = 0;     ///< total acquire() calls
    std::uint64_t recycled = 0;     ///< acquires served by the free list
    std::uint64_t slot_allocs = 0;  ///< new slots constructed
};

class MessagePool;

namespace detail {
/// One pooled message plus its (non-atomic) per-slot refcount.
struct MessageSlot {
    Message msg;
    std::uint32_t refs = 0;
};
/// Pool storage, co-owned by the pool and every outstanding ref.
struct MessagePoolState {
    std::deque<MessageSlot> slots;  ///< stable addresses for live refs
    std::vector<MessageSlot*> free;
    MessagePoolStats stats;
    std::uint64_t refs = 1;  ///< the pool itself + every live MessageRef
};
}  // namespace detail

/// Shared handle to a pooled Message. Copy/move are cheap (non-atomic
/// refcounts); the slot returns to the pool's free list when the last
/// ref drops. Not thread-safe by design — see file comment.
class MessageRef {
public:
    MessageRef() noexcept = default;
    MessageRef(const MessageRef& o) noexcept : state_{o.state_}, slot_{o.slot_} {
        retain();
    }
    MessageRef(MessageRef&& o) noexcept : state_{o.state_}, slot_{o.slot_} {
        o.state_ = nullptr;
        o.slot_ = nullptr;
    }
    MessageRef& operator=(const MessageRef& o) noexcept {
        if (this != &o) {
            release();
            state_ = o.state_;
            slot_ = o.slot_;
            retain();
        }
        return *this;
    }
    MessageRef& operator=(MessageRef&& o) noexcept {
        if (this != &o) {
            release();
            state_ = o.state_;
            slot_ = o.slot_;
            o.state_ = nullptr;
            o.slot_ = nullptr;
        }
        return *this;
    }
    ~MessageRef() { release(); }

    [[nodiscard]] explicit operator bool() const noexcept {
        return slot_ != nullptr;
    }
    [[nodiscard]] Message& operator*() const noexcept { return slot_->msg; }
    [[nodiscard]] Message* operator->() const noexcept { return &slot_->msg; }

private:
    friend class MessagePool;
    MessageRef(detail::MessagePoolState* state,
               detail::MessageSlot* slot) noexcept
        : state_{state}, slot_{slot} {}

    void retain() noexcept {
        if (state_ != nullptr) {
            ++state_->refs;
            ++slot_->refs;
        }
    }
    void release() noexcept {
        if (state_ == nullptr) return;
        if (--slot_->refs == 0) state_->free.push_back(slot_);
        if (--state_->refs == 0) delete state_;
        state_ = nullptr;
        slot_ = nullptr;
    }

    detail::MessagePoolState* state_ = nullptr;
    detail::MessageSlot* slot_ = nullptr;
};

/// The slot store. One per Bus; acquire() hands out refs whose slots
/// recycle when the last copy drops.
class MessagePool {
public:
    MessagePool() : state_{new detail::MessagePoolState} {}
    MessagePool(const MessagePool&) = delete;
    MessagePool& operator=(const MessagePool&) = delete;
    ~MessagePool() {
        if (--state_->refs == 0) delete state_;
    }

    /// Returns a ref (refcount 1) to a slot whose Message holds stale
    /// field values from its previous use — the caller overwrites every
    /// field (string assignment reuses the old buffers' capacity).
    [[nodiscard]] MessageRef acquire() {
        auto& st = *state_;
        ++st.stats.acquired;
        detail::MessageSlot* slot;
        if (!st.free.empty()) {
            ++st.stats.recycled;
            slot = st.free.back();
            st.free.pop_back();
        } else {
            ++st.stats.slot_allocs;
            slot = &st.slots.emplace_back();
        }
        slot->refs = 1;
        ++st.refs;
        return MessageRef{state_, slot};
    }

    [[nodiscard]] const MessagePoolStats& stats() const noexcept {
        return state_->stats;
    }
    /// Slots currently held by live refs (0 once the kernel drained).
    [[nodiscard]] std::size_t slots_in_flight() const noexcept {
        return state_->slots.size() - state_->free.size();
    }

private:
    detail::MessagePoolState* state_;
};

}  // namespace mcps::net
