#include "bus.hpp"

#include <algorithm>
#include <functional>

namespace mcps::net {

using mcps::sim::SimTime;

namespace {
/// Deterministic garbling for a corrupted delivery: the vital value is
/// replaced by a bounded nonsense reading derived from the message
/// sequence number, and the quality flag is cleared. Only vital streams
/// corrupt — commands and acks are modeled as end-to-end CRC-protected
/// (a corrupted command is indistinguishable from a lost one).
double garbled_vital(std::uint64_t seq) {
    std::uint64_t s = seq ^ 0xC0FFEE; // any fixed tweak; determinism is the point
    const std::uint64_t h = mcps::sim::splitmix64(s);
    return static_cast<double>(h >> 11) * 0x1.0p-53 * 250.0;
}
}  // namespace

Bus::Bus(mcps::sim::Simulation& sim, ChannelParameters default_channel)
    : sim_{sim}, default_params_{default_channel} {
    default_params_.validate();
}

SubscriptionId Bus::subscribe(const std::string& endpoint,
                              const std::string& pattern, Handler handler) {
    if (!handler) throw std::invalid_argument("subscribe: empty handler");
    const SubscriptionId id{next_sub_++};
    ++epoch_;
    subs_.push_back(std::make_unique<Subscription>(Subscription{
        id, endpoint, pattern, std::move(handler), &channel_for(endpoint)}));
    return id;
}

bool Bus::unsubscribe(SubscriptionId id) {
    const auto it = std::find_if(subs_.begin(), subs_.end(),
                                 [id](const auto& s) {
                                     return s->id.value == id.value;
                                 });
    if (it == subs_.end()) return false;
    (*it)->live = false;
    ++epoch_;
    retired_.push_back(std::move(*it));
    subs_.erase(it);
    return true;
}

Channel& Bus::channel_for(const std::string& endpoint) {
    auto it = channels_.find(endpoint);
    if (it == channels_.end()) {
        it = channels_
                 .emplace(endpoint, std::make_unique<Channel>(
                                        default_params_,
                                        sim_.rng("bus.channel." + endpoint)))
                 .first;
        // Lazily-created links inherit any partition windows already
        // declared, so partition semantics don't depend on first-publish
        // order.
        for (const auto& w : partitions_) {
            it->second->add_outage(w.first, w.second);
        }
    }
    return *it->second;
}

void Bus::add_partition(SimTime from, SimTime to) {
    if (to <= from) {
        throw std::invalid_argument("add_partition: empty/negative window");
    }
    for (auto& [name, ch] : channels_) ch->add_outage(from, to);
    partitions_.emplace_back(from, to);
}

Channel& Bus::endpoint_channel(const std::string& endpoint) {
    return channel_for(endpoint);
}

void Bus::set_endpoint_channel(const std::string& endpoint,
                               const ChannelParameters& params) {
    channel_for(endpoint).set_parameters(params);
}

std::size_t Bus::RouteKeyHash::operator()(const RouteKey& k) const noexcept {
    // The topic alone: a topic nearly always has one sender, and the
    // key's equality still compares both.
    return std::hash<std::string_view>{}(k.topic);
}

Publisher Bus::advertise(std::string_view sender, std::string_view topic) {
    if (const auto it = route_ids_.find(RouteKey{sender, topic});
        it != route_ids_.end()) {
        return Publisher{it->second};
    }
    const auto id = static_cast<std::uint32_t>(routes_.size());
    Route& r = *routes_.emplace_back(std::make_unique<Route>());
    r.sender.assign(sender);
    r.topic.assign(topic);
    route_ids_.emplace(RouteKey{r.sender, r.topic}, id);
    return Publisher{id};
}

void Bus::resolve(Route& r) {
    r.subs.clear();
    for (const auto& slot : subs_) {
        if (topic_matches(slot->pattern, r.topic)) r.subs.push_back(slot.get());
    }
    r.epoch = epoch_;
}

std::uint64_t Bus::publish(Publisher pub, Payload payload) {
    if (pub.route >= routes_.size()) {
        throw std::invalid_argument("publish: unknown publisher handle");
    }
    Route& route = *routes_[pub.route];
    const std::uint64_t seq = next_seq_++;
    ++stats_.published;
    const SimTime now = sim_.now();
    if (events_) {
        events_->emit(mcps::obs::EventKind::kBusPublish, now, route.sender,
                      route.topic, static_cast<double>(seq));
    }

    // The route's list is the live subscriptions at this instant (the
    // epoch moves on every subscribe/unsubscribe), so a subscriber added
    // after publication never receives an in-flight message.
    if (route.epoch != epoch_) resolve(route);
    if (route.subs.empty()) return seq;

    // Pooled slot: strings reuse the recycled slot's capacity, and the
    // refs handed to delivery events are non-atomic increments.
    MessageRef msg = pool_.acquire();
    {
        Message& m = *msg;
        m.seq = seq;
        m.topic.assign(route.topic);
        m.sender.assign(route.sender);
        m.sent_at = now;
        m.payload = std::move(payload);
    }

    for (Subscription* sub : route.subs) {
        DeliveryPlan plan = sub->channel->plan_delivery(now);
        if (plan.dropped) {
            ++stats_.dropped;
            if (events_) {
                events_->emit(mcps::obs::EventKind::kBusDrop, now,
                              sub->endpoint, route.topic,
                              static_cast<double>(seq));
            }
            continue;
        }
        MessageRef out = msg;
        if (plan.corrupted) {
            if (const auto* v = payload_as<VitalSignPayload>(*msg)) {
                ++stats_.corrupted;
                out = pool_.acquire();
                Message& o = *out;
                o.seq = msg->seq;
                o.topic.assign(msg->topic);
                o.sender.assign(msg->sender);
                o.sent_at = msg->sent_at;
                o.payload = VitalSignPayload{v->metric,
                                             garbled_vital(msg->seq), false};
            }
        }
        auto deliver = [this, msg = std::move(out), to = sub]() {
            // Re-check liveness at delivery time: unsubscribing cancels
            // in-flight deliveries, as a real middleware detach would.
            if (!to->live) return;
            ++stats_.delivered;
            stats_.delivery_latency_ms.add(
                (sim_.now() - msg->sent_at).to_millis());
            if (events_) {
                events_->emit(mcps::obs::EventKind::kBusDeliver, sim_.now(),
                              to->endpoint, msg->topic,
                              static_cast<double>(msg->seq));
            }
            to->handler(*msg);
        };
        if (plan.duplicated) {
            ++stats_.duplicated;
            sim_.schedule_after(plan.delay, deliver);
            sim_.schedule_after(plan.dup_delay, std::move(deliver));
        } else {
            sim_.schedule_after(plan.delay, std::move(deliver));
        }
    }
    return seq;
}

}  // namespace mcps::net
