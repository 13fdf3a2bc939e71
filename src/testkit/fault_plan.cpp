#include "fault_plan.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace mcps::testkit {

using mcps::sim::SimTime;

std::string_view to_string(FaultKind k) noexcept {
    switch (k) {
        case FaultKind::kOutage: return "outage";
        case FaultKind::kPartition: return "partition";
        case FaultKind::kLossBurst: return "loss_burst";
        case FaultKind::kDelaySpike: return "delay_spike";
        case FaultKind::kDupBurst: return "dup_burst";
        case FaultKind::kReorderBurst: return "reorder_burst";
        case FaultKind::kCorruptBurst: return "corrupt_burst";
        case FaultKind::kOxiDropout: return "oxi_dropout";
        case FaultKind::kCapDropout: return "cap_dropout";
        case FaultKind::kPumpCmdLoss: return "pump_cmd_loss";
    }
    return "unknown";
}

std::optional<FaultKind> fault_kind_from(std::string_view s) {
    for (auto k : {FaultKind::kOutage, FaultKind::kPartition,
                   FaultKind::kLossBurst, FaultKind::kDelaySpike,
                   FaultKind::kDupBurst, FaultKind::kReorderBurst,
                   FaultKind::kCorruptBurst, FaultKind::kOxiDropout,
                   FaultKind::kCapDropout, FaultKind::kPumpCmdLoss}) {
        if (to_string(k) == s) return k;
    }
    return std::nullopt;
}

bool magnitude_in_domain(FaultKind kind, double magnitude) noexcept {
    switch (kind) {
        case FaultKind::kLossBurst:
        case FaultKind::kDupBurst:
        case FaultKind::kReorderBurst:
        case FaultKind::kCorruptBurst:
            return magnitude >= 0.0 && magnitude <= 1.0;
        case FaultKind::kDelaySpike:
            // apply() truncates to whole ms and scales by 1000, which fits
            // int64 iff magnitude < INT64_MAX / 1000 + 1 (an even number
            // below 2^54, so the double holds it exactly).
            return magnitude >= 0.0 &&
                   magnitude < static_cast<double>(
                                   std::numeric_limits<std::int64_t>::max() /
                                       1000 +
                                   1);
        case FaultKind::kOutage:
        case FaultKind::kPartition:
        case FaultKind::kOxiDropout:
        case FaultKind::kCapDropout:
        case FaultKind::kPumpCmdLoss:
            break;
    }
    return std::isfinite(magnitude);
}

FaultPlan FaultPlan::without(std::size_t index) const {
    FaultPlan p;
    p.events.reserve(events.size() - 1);
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i != index) p.events.push_back(events[i]);
    }
    return p;
}

FaultInjector::FaultInjector(mcps::sim::Simulation& sim, net::Bus& bus,
                             mcps::obs::EventLog& events)
    : sim_{sim}, bus_{bus}, events_{events} {}

void FaultInjector::arm(const FaultPlan& plan) {
    for (const auto& e : plan.events) {
        if (!magnitude_in_domain(e.kind, e.magnitude)) {
            throw std::invalid_argument(
                "fault plan: magnitude " + std::to_string(e.magnitude) +
                " is outside the domain of " + std::string{to_string(e.kind)});
        }
    }
    for (const auto& e : plan.events) apply(e);
}

void FaultInjector::window_burst(const FaultEvent& e,
                                 void (*mutate)(net::ChannelParameters&,
                                                double)) {
    // Mutate the target link at window start, restore the parameters that
    // were live at that instant at window end. Windows on the same
    // endpoint should not overlap (the generator guarantees it); if they
    // do, the later restore wins.
    const SimTime from = SimTime::at(e.at);
    const std::string target = e.target;
    const double mag = e.magnitude;
    sim_.schedule_at(from, [this, target, mag, mutate, dur = e.duration] {
        net::Channel& ch = bus_.endpoint_channel(target);
        const net::ChannelParameters saved = ch.parameters();
        net::ChannelParameters burst = saved;
        mutate(burst, mag);
        ch.set_parameters(burst);
        sim_.schedule_after(dur, [this, target, saved] {
            bus_.endpoint_channel(target).set_parameters(saved);
        });
    });
}

void FaultInjector::apply(const FaultEvent& e) {
    const SimTime from = SimTime::at(e.at);
    const SimTime to = from + e.duration;
    switch (e.kind) {
        case FaultKind::kOutage:
            bus_.endpoint_channel(e.target).add_outage(from, to);
            break;
        case FaultKind::kPartition:
            bus_.add_partition(from, to);
            break;
        case FaultKind::kPumpCmdLoss:
            bus_.endpoint_channel(pump_endpoint_).add_outage(from, to);
            break;
        case FaultKind::kLossBurst:
            window_burst(e, [](net::ChannelParameters& p, double m) {
                p.loss_probability = m;
            });
            break;
        case FaultKind::kDelaySpike:
            window_burst(e, [](net::ChannelParameters& p, double m) {
                p.base_latency += mcps::sim::SimDuration::millis(
                    static_cast<std::int64_t>(m));
            });
            break;
        case FaultKind::kDupBurst:
            window_burst(e, [](net::ChannelParameters& p, double m) {
                p.duplicate_probability = m;
            });
            break;
        case FaultKind::kReorderBurst:
            window_burst(e, [](net::ChannelParameters& p, double m) {
                p.reorder_probability = m;
                p.reorder_window = mcps::sim::SimDuration::millis(1500);
            });
            break;
        case FaultKind::kCorruptBurst:
            window_burst(e, [](net::ChannelParameters& p, double m) {
                p.corrupt_probability = m;
            });
            break;
        case FaultKind::kOxiDropout:
            if (!oximeter_) {
                ++skipped_;
                return;
            }
            sim_.schedule_at(from, [this, dur = e.duration] {
                oximeter_->force_dropout(dur);
            });
            break;
        case FaultKind::kCapDropout:
            if (!capnometer_) {
                ++skipped_;
                return;
            }
            sim_.schedule_at(from, [this, dur = e.duration] {
                capnometer_->force_dropout(dur);
            });
            break;
    }
    ++armed_;
    const std::string_view kind = to_string(e.kind);
    events_.emit(mcps::obs::EventKind::kFaultInject, SimTime::at(e.at),
                 e.target.empty() ? kind : std::string_view{e.target}, kind,
                 e.magnitude);
}

}  // namespace mcps::testkit
