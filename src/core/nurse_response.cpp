#include "nurse_response.hpp"

#include <algorithm>
#include <cmath>

namespace mcps::core {

using mcps::obs::EventKind;
using mcps::sim::SimDuration;
using mcps::sim::SimTime;

NurseResponder::NurseResponder(devices::DeviceContext ctx, std::string name,
                               physio::Patient& patient, NurseConfig cfg)
    : ctx_{ctx},
      name_{std::move(name)},
      patient_{patient},
      cfg_{std::move(cfg)},
      rng_{ctx.sim.rng("nurse." + name_)} {
    if (cfg_.base_response <= SimDuration::zero() ||
        cfg_.fatigue_window <= SimDuration::zero() ||
        cfg_.max_response_factor < 1.0) {
        throw std::invalid_argument("NurseConfig: invalid parameters");
    }
}

void NurseResponder::start() {
    if (running_) return;
    running_ = true;
    sub_ = ctx_.bus.subscribe(name_, cfg_.alarm_topic,
                              [this](const mcps::net::Message& m) {
                                  on_alarm(m);
                              });
}

void NurseResponder::stop() {
    if (!running_) return;
    running_ = false;
    ctx_.bus.unsubscribe(sub_);
}

void NurseResponder::prune_fatigue_window() const {
    const SimTime cutoff = ctx_.sim.now() - cfg_.fatigue_window;
    while (!recent_alarms_.empty() && recent_alarms_.front() < cutoff) {
        recent_alarms_.pop_front();
    }
}

double NurseResponder::current_fatigue_factor() const {
    prune_fatigue_window();
    return std::min(cfg_.max_response_factor,
                    1.0 + cfg_.fatigue_per_alarm *
                              static_cast<double>(recent_alarms_.size()));
}

void NurseResponder::on_alarm(const mcps::net::Message& m) {
    (void)m;
    ++stats_.alarms_heard;
    // The fatigue factor is computed from the burden BEFORE this alarm:
    // a first alarm after a quiet hour gets the fastest response.
    prune_fatigue_window();
    const double factor = current_fatigue_factor();
    const double p_ignore =
        std::min(cfg_.max_ignore_probability,
                 cfg_.ignore_per_alarm *
                     static_cast<double>(recent_alarms_.size()));
    recent_alarms_.push_back(ctx_.sim.now());

    if (dispatched_) return;  // already on the way / at the bedside
    if (rng_.bernoulli(p_ignore)) {
        ++stats_.ignored;
        ctx_.emit(EventKind::kClinician, name_, "ignored");
        return;
    }
    dispatched_ = true;
    ++stats_.dispatches;
    stats_.fatigue_factors.push_back(factor);

    const double mu = std::log(cfg_.base_response.to_seconds() * factor);
    const double delay_s = rng_.lognormal(mu, cfg_.response_sigma);
    const SimTime alarm_at = ctx_.sim.now();
    ctx_.emit(EventKind::kClinician, name_, "dispatch", delay_s);
    ctx_.sim.schedule_after(SimDuration::from_seconds(delay_s),
                            [this, alarm_at] { arrive_at_bedside(alarm_at); });
}

void NurseResponder::arrive_at_bedside(SimTime alarm_at) {
    stats_.response_times_s.push_back(
        (ctx_.sim.now() - alarm_at).to_seconds());
    ctx_.emit(EventKind::kClinician, name_, "arrive",
              stats_.response_times_s.back());

    ctx_.sim.schedule_after(cfg_.assessment, [this] {
        dispatched_ = false;
        const bool depressed =
            patient_.is_apneic() ||
            patient_.resp_rate().as_per_minute() < cfg_.rescue_rr ||
            patient_.spo2().as_percent() < cfg_.rescue_spo2 ||
            patient_.etco2().as_mmhg() > cfg_.rescue_etco2;
        if (!depressed) {
            ++stats_.false_trips;
            ctx_.emit(EventKind::kClinician, name_, "false_trip");
            return;
        }
        const bool lockout_active =
            ever_rescued_ &&
            ctx_.sim.now() - last_rescue_ < cfg_.redose_lockout;
        if (lockout_active) return;
        // A competent rescue stops the infusion FIRST, then antagonizes.
        if (!cfg_.pump_name.empty()) {
            mcps::net::CommandPayload stop;
            stop.action = "stop_infusion";
            ctx_.bus.publish(name_, "cmd/" + cfg_.pump_name, stop);
        }
        patient_.give_antagonist(cfg_.antagonist_potency,
                                 cfg_.antagonist_half_life.to_seconds());
        last_rescue_ = ctx_.sim.now();
        if (!ever_rescued_ && !stats_.response_times_s.empty()) {
            stats_.first_rescue_latency_s =
                stats_.response_times_s.front() + cfg_.assessment.to_seconds();
        }
        ever_rescued_ = true;
        ++stats_.rescues;
        ctx_.emit(EventKind::kClinician, name_, "rescue");
        ctx_.bus.publish(name_, "nurse/" + name_ + "/rescue",
                         mcps::net::StatusPayload{"rescue", "antagonist"});
    });
}

}  // namespace mcps::core
