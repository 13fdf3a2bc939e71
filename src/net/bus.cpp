#include "bus.hpp"

#include <algorithm>

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

std::uint64_t Bus::publish(const std::string& sender, const std::string& topic,
                           Payload payload) {
    const std::uint64_t seq = next_seq_++;
    ++stats_.published;
    const SimTime now = sim_.now();

    // Pooled slot: strings reuse the recycled slot's capacity, and the
    // refs handed to delivery events are non-atomic increments.
    MessageRef msg = pool_.acquire();
    {
        Message& m = *msg;
        m.seq = seq;
        m.topic.assign(topic);
        m.sender.assign(sender);
        m.sent_at = now;
        m.payload = std::move(payload);
    }
    if (events_) {
        events_->emit(mcps::obs::EventKind::kBusPublish, now, sender, topic,
                      static_cast<double>(seq));
    }

    // Snapshot matching subscriptions now; a subscriber added after
    // publication must not receive an in-flight message.
    for (const auto& slot : subs_) {
        const Subscription& sub = *slot;
        if (!topic_matches(sub.pattern, topic)) continue;
        DeliveryPlan plan = sub.channel->plan_delivery(now);
        if (plan.dropped) {
            ++stats_.dropped;
            if (events_) {
                events_->emit(mcps::obs::EventKind::kBusDrop, now,
                              sub.endpoint, topic, static_cast<double>(seq));
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
        auto deliver = [this, msg = std::move(out), to = slot.get()]() {
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
        sim_.schedule_after(plan.delay, deliver);
        if (plan.duplicated) {
            ++stats_.duplicated;
            sim_.schedule_after(plan.dup_delay, deliver);
        }
    }
    return seq;
}

}  // namespace mcps::net
