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
///
/// Routing is resolved once per (sender, topic), not per message: an
/// endpoint advertises what it publishes and gets a Publisher handle;
/// the bus keeps that route's matched subscriptions and re-resolves
/// them only after a subscribe or unsubscribe (see DESIGN.md, "Publish
/// routes").

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
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

/// Publish handle from Bus::advertise: an index into that bus's route
/// table. Cheap to copy; valid for the lifetime of the bus that issued
/// it and meaningless on any other bus.
struct Publisher {
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
    std::uint32_t route = kNone;
    [[nodiscard]] bool valid() const noexcept { return route != kNone; }
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

    /// Declare that \p sender publishes on \p topic. Advertising the
    /// same pair again returns the same handle. Subscriptions are
    /// matched when the handle is first published through, and again
    /// only after the set of subscriptions changes.
    [[nodiscard]] Publisher advertise(std::string_view sender,
                                      std::string_view topic);

    /// Publish a message on an advertised route at the current simulation
    /// instant. Returns the assigned sequence number. A route no
    /// subscription matches still takes a sequence number, counts as
    /// published and records bus_publish, but builds no message.
    /// \throws std::invalid_argument for a handle this bus did not issue.
    std::uint64_t publish(Publisher pub, Payload payload);

    /// Shorthand for publish(advertise(sender, topic), payload): one
    /// hashed lookup, so an occasional publisher needs no handle.
    std::uint64_t publish(std::string_view sender, std::string_view topic,
                          Payload payload) {
        return publish(advertise(sender, topic), std::move(payload));
    }

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

    /// One advertised (sender, topic) pair and the live subscriptions
    /// matching it, in subscribe order, as of bus epoch `epoch`.
    struct Route {
        std::string sender;
        std::string topic;
        std::vector<Subscription*> subs;
        std::uint64_t epoch = 0;  ///< 0: never resolved
    };
    /// Lookup key viewing a Route's own strings (routes never move).
    struct RouteKey {
        std::string_view sender;
        std::string_view topic;
        bool operator==(const RouteKey&) const = default;
    };
    struct RouteKeyHash {
        std::size_t operator()(const RouteKey& k) const noexcept;
    };

    Channel& channel_for(const std::string& endpoint);
    /// Rebuild \p r's subscription list from subs_ (publish calls this
    /// when the route is older than the current epoch).
    void resolve(Route& r);

    mcps::sim::Simulation& sim_;
    ChannelParameters default_params_;
    std::uint64_t next_seq_{1};
    std::uint64_t next_sub_{1};
    /// Bumped by every subscribe and unsubscribe; a route resolved at an
    /// older epoch is stale.
    std::uint64_t epoch_{1};
    /// Live subscriptions in subscribe order. Each sits at a fixed heap
    /// address, which scheduled deliveries hold and a running handler
    /// executes from, so subscribing or unsubscribing moves nothing.
    std::vector<std::unique_ptr<Subscription>> subs_;
    /// Unsubscribed slots, kept until the bus dies: a scheduled delivery
    /// or a handler still running may point at one.
    std::vector<std::unique_ptr<Subscription>> retired_;
    /// Advertised routes, indexed by Publisher::route. Each sits at a
    /// fixed heap address, so the keys of route_ids_ (views of each
    /// route's strings) stay valid as the table grows.
    std::vector<std::unique_ptr<Route>> routes_;
    std::unordered_map<RouteKey, std::uint32_t, RouteKeyHash> route_ids_;
    std::map<std::string, std::unique_ptr<Channel>> channels_;
    std::vector<std::pair<mcps::sim::SimTime, mcps::sim::SimTime>> partitions_;
    MessagePool pool_;
    BusStats stats_;
    mcps::obs::EventLog* events_ = nullptr;
};

}  // namespace mcps::net
