/// \file bus.hpp
/// \brief Topic-based publish/subscribe data bus over simulated channels.
///
/// The Bus is the framework's stand-in for an ICE network controller's
/// data plane: endpoints (devices, supervisor apps) publish typed
/// messages to hierarchical topics; subscribers receive them after the
/// subscriber's link channel applies latency/jitter/loss. Delivery is
/// scheduled on the shared Simulation kernel, so everything stays
/// deterministic.
///
/// Ordering note: messages on one (publisher, subscriber) pair can
/// reorder if jitter exceeds the publish spacing — exactly like UDP-based
/// medical device protocols; consumers needing order use Message::seq.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "channel.hpp"
#include "message.hpp"
#include "message_pool.hpp"
#include "obs/event_log.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"

namespace mcps::net {

/// Unsubscribe token. Destroying it does NOT unsubscribe (explicit
/// lifetime, so tests can drop tokens freely); call Bus::unsubscribe.
struct SubscriptionId {
    std::uint64_t value = 0;
    [[nodiscard]] bool valid() const noexcept { return value != 0; }
};

/// Aggregate traffic counters (benchmark E6 output).
struct BusStats {
    std::uint64_t published = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t corrupted = 0;
    /// Sim-time publish-to-delivery latency: running moments only, so a
    /// long run's stats stay a few words.
    mcps::sim::RunningStats delivery_latency_ms;
};

/// The pub/sub bus. One per scenario; endpoints register a link channel
/// (or inherit the default).
class Bus {
public:
    using Handler = std::function<void(const Message&)>;

    /// \param sim kernel used for delivery scheduling; must outlive the bus.
    /// \param default_channel link model for endpoints without an override.
    Bus(mcps::sim::Simulation& sim, ChannelParameters default_channel = {});

    Bus(const Bus&) = delete;
    Bus& operator=(const Bus&) = delete;

    /// Subscribe \p endpoint to all topics matching \p pattern (see
    /// topic_matches). The handler runs at delivery time (after the
    /// endpoint's channel delay). A handler may subscribe or unsubscribe,
    /// itself included, while it runs.
    SubscriptionId subscribe(const std::string& endpoint,
                             const std::string& pattern, Handler handler);

    /// Remove a subscription; returns false if the id was already gone.
    bool unsubscribe(SubscriptionId id);

    /// Publish a message from \p sender on \p topic at the current
    /// simulation instant. Returns the assigned sequence number.
    std::uint64_t publish(const std::string& sender, const std::string& topic,
                          Payload payload);

    /// Give \p endpoint a dedicated link model (otherwise the default
    /// channel parameters apply). Returns a reference usable to inject
    /// outages or degrade the link mid-run.
    Channel& endpoint_channel(const std::string& endpoint);
    /// Set/replace the parameters for an endpoint's dedicated link.
    void set_endpoint_channel(const std::string& endpoint,
                              const ChannelParameters& params);

    /// Network partition: every endpoint link (existing and future) drops
    /// all messages sent during [from, to). Models a switch/gateway dying
    /// under the whole device ensemble at once.
    void add_partition(mcps::sim::SimTime from, mcps::sim::SimTime to);

    [[nodiscard]] const BusStats& stats() const noexcept { return stats_; }
    [[nodiscard]] std::size_t subscription_count() const noexcept {
        return subs_.size();
    }

    /// Message-slot recycling counters: steady-state publishing must
    /// serve slots from the free list, not the heap.
    [[nodiscard]] const MessagePoolStats& pool_stats() const noexcept {
        return pool_.stats();
    }

    /// Attach a structured event log (publish/deliver/drop events).
    /// nullptr (the default) disables bus tracing at one-branch cost.
    /// The log must outlive the bus.
    void set_event_log(mcps::obs::EventLog* log) noexcept { events_ = log; }
    [[nodiscard]] mcps::obs::EventLog* event_log() const noexcept {
        return events_;
    }

private:
    struct Subscription {
        SubscriptionId id;
        std::string endpoint;
        std::string pattern;
        Handler handler;
        /// Resolved at subscribe time: channels are never destroyed while
        /// the bus lives, so publish skips the per-delivery map lookup.
        Channel* channel = nullptr;
        /// Cleared by unsubscribe: deliveries still in flight check it.
        bool live = true;
    };

    Channel& channel_for(const std::string& endpoint);

    mcps::sim::Simulation& sim_;
    ChannelParameters default_params_;
    std::uint64_t next_seq_{1};
    std::uint64_t next_sub_{1};
    /// Live subscriptions in subscribe order. Each sits at a fixed heap
    /// address, which scheduled deliveries hold and a running handler
    /// executes from, so subscribing or unsubscribing moves nothing.
    std::vector<std::unique_ptr<Subscription>> subs_;
    /// Unsubscribed slots, kept until the bus dies: a scheduled delivery
    /// or a handler still running may point at one.
    std::vector<std::unique_ptr<Subscription>> retired_;
    std::map<std::string, std::unique_ptr<Channel>> channels_;
    std::vector<std::pair<mcps::sim::SimTime, mcps::sim::SimTime>> partitions_;
    MessagePool pool_;
    BusStats stats_;
    mcps::obs::EventLog* events_ = nullptr;
};

}  // namespace mcps::net
