#include "xray_vent_app.hpp"

#include <stdexcept>

namespace mcps::core {

using mcps::sim::SimDuration;
using mcps::sim::SimTime;

std::string_view to_string(SyncPhase p) noexcept {
    switch (p) {
        case SyncPhase::kIdle: return "idle";
        case SyncPhase::kPausing: return "pausing";
        case SyncPhase::kExposing: return "exposing";
        case SyncPhase::kResuming: return "resuming";
        case SyncPhase::kDone: return "done";
    }
    return "unknown";
}

XrayVentSync::XrayVentSync(devices::DeviceContext ctx, std::string name,
                           XrayVentConfig cfg)
    : ice::VmdApp{std::move(name)}, ctx_{ctx}, cfg_{cfg} {
    if (cfg_.retry_period <= SimDuration::zero() || cfg_.max_retries < 0) {
        throw std::invalid_argument("XrayVentConfig: bad retry settings");
    }
}

std::vector<ice::Requirement> XrayVentSync::requirements() const {
    return {
        {devices::DeviceKind::kVentilator, {"remote-pause"}, "ventilator"},
        {devices::DeviceKind::kXRay, {"imaging"}, "x-ray"},
    };
}

void XrayVentSync::bind(const std::vector<ice::DeviceDescriptor>& devices) {
    if (devices.size() != 2) {
        throw std::invalid_argument("XrayVentSync::bind: expected 2 devices");
    }
    vent_name_ = devices[0].name;
    xray_name_ = devices[1].name;
}

void XrayVentSync::on_app_start() {
    if (vent_name_.empty()) {
        throw std::logic_error("XrayVentSync: on_app_start before bind");
    }
    started_ = true;
    subs_.push_back(ctx_.bus.subscribe(
        name(), "ack/" + vent_name_,
        [this](const mcps::net::Message& m) { on_ack(m); }));
    subs_.push_back(ctx_.bus.subscribe(
        name(), "ack/" + xray_name_,
        [this](const mcps::net::Message& m) { on_ack(m); }));
    subs_.push_back(ctx_.bus.subscribe(
        name(), "image/" + xray_name_,
        [this](const mcps::net::Message& m) { on_image(m); }));
}

void XrayVentSync::on_app_stop() {
    started_ = false;
    retry_handle_.cancel();
    for (auto s : subs_) ctx_.bus.unsubscribe(s);
    subs_.clear();
    phase_ = SyncPhase::kIdle;
}

void XrayVentSync::advance_to(SyncPhase p) {
    phase_ = p;
    phase_entered_ = ctx_.sim.now();
    ctx_.emit(mcps::obs::EventKind::kAppState, name(), to_string(p));
}

void XrayVentSync::send_command(const std::string& device,
                                const std::string& action,
                                std::map<std::string, double> args) {
    mcps::net::CommandPayload cmd;
    cmd.action = action;
    cmd.args = std::move(args);
    cmd.command_seq = pending_seq_;
    ctx_.bus.publish(name(), "cmd/" + device, cmd);
}

bool XrayVentSync::request_exposure() {
    if (!started_ || phase_ != SyncPhase::kIdle) return false;
    current_ = SyncOutcome{};
    retries_ = 0;
    advance_to(SyncPhase::kPausing);
    pending_seq_ = next_seq_++;
    pause_started_ = ctx_.sim.now();
    // The ventilator clamps the window to its own max_pause, and its
    // auto-resume remains the backstop if we die mid-procedure.
    send_command(vent_name_, "pause",
                 {{"duration_s", cfg_.pause_window.to_seconds()}});
    retry_handle_.cancel();
    retry_handle_ = ctx_.sim.schedule_periodic(cfg_.retry_period,
                                               [this] { on_retry_timer(); });
    return true;
}

void XrayVentSync::on_retry_timer() {
    if (phase_ == SyncPhase::kIdle || phase_ == SyncPhase::kDone) {
        retry_handle_.cancel();
        return;
    }
    // Once the x-ray has ACCEPTED the expose command, the sequence
    // legitimately takes prep+exposure time: only count a retry when the
    // image is actually overdue. An UNacked expose may have been lost
    // and is retried at the normal cadence.
    if (phase_ == SyncPhase::kExposing && expose_acked_ &&
        ctx_.sim.now() - phase_entered_ < cfg_.image_timeout) {
        return;
    }
    if (++retries_ > cfg_.max_retries) {
        // Give up; command a resume best-effort and record the abort.
        ctx_.emit(mcps::obs::EventKind::kAppState, name(), "abort");
        pending_seq_ = next_seq_++;
        send_command(vent_name_, "resume");
        finish(/*completed=*/false, /*sharp=*/false);
        return;
    }
    ++current_.command_retries;
    switch (phase_) {
        case SyncPhase::kPausing:
            send_command(vent_name_, "pause",
                         {{"duration_s", cfg_.pause_window.to_seconds()}});
            break;
        case SyncPhase::kExposing:
            send_command(xray_name_, "expose");
            break;
        case SyncPhase::kResuming:
            send_command(vent_name_, "resume");
            break;
        default:
            break;
    }
}

void XrayVentSync::on_ack(const mcps::net::Message& m) {
    const auto* ack = mcps::net::payload_as<mcps::net::AckPayload>(m);
    if (!ack || ack->command_seq != pending_seq_) return;

    switch (phase_) {
        case SyncPhase::kPausing:
            if (!ack->success) return;  // keep retrying
            retries_ = 0;
            expose_acked_ = false;
            advance_to(SyncPhase::kExposing);
            pending_seq_ = next_seq_++;
            send_command(xray_name_, "expose");
            break;
        case SyncPhase::kExposing:
            // Expose accepted; the image result callback advances us.
            // A "busy" nack is left to the retry timer.
            if (ack->success) {
                expose_acked_ = true;
                retries_ = 0;
            }
            break;
        case SyncPhase::kResuming:
            if (!ack->success) return;
            finish(/*completed=*/true, current_.image_sharp);
            break;
        default:
            break;
    }
}

void XrayVentSync::on_image(const mcps::net::Message& m) {
    if (phase_ != SyncPhase::kExposing) return;
    const auto* st = mcps::net::payload_as<mcps::net::StatusPayload>(m);
    if (!st) return;
    current_.image_sharp = (st->state == "sharp");
    retries_ = 0;
    advance_to(SyncPhase::kResuming);
    pending_seq_ = next_seq_++;
    send_command(vent_name_, "resume");
}

void XrayVentSync::finish(bool completed, bool sharp) {
    retry_handle_.cancel();
    current_.completed = completed;
    current_.image_sharp = sharp;
    current_.apnea_s = (ctx_.sim.now() - pause_started_).to_seconds();
    outcomes_.push_back(current_);
    advance_to(SyncPhase::kDone);
    // Ready for the next request.
    phase_ = SyncPhase::kIdle;
}

// ---------------------------------------------------------------------
// ManualCoordinator
// ---------------------------------------------------------------------

ManualCoordinator::ManualCoordinator(devices::DeviceContext ctx,
                                     ManualCoordinatorConfig cfg,
                                     mcps::sim::RngStream rng)
    : ctx_{ctx}, cfg_{cfg}, rng_{rng} {}

void ManualCoordinator::run_procedure(devices::Ventilator& vent,
                                      devices::XRayMachine& xray) {
    const double sigma = cfg_.reaction_sigma;
    const double mu = std::log(cfg_.median_reaction_s);
    auto reaction = [this, mu, sigma] {
        return SimDuration::from_seconds(rng_.lognormal(mu, sigma));
    };

    // Failure mode: shoot without pausing at all (mis-timed workflow).
    if (rng_.bernoulli(cfg_.premature_shot_probability)) {
        ctx_.sim.schedule_after(reaction(), [this, &vent, &xray] {
            xray.expose();
            const auto wait = xray.config().prep_time + xray.config().exposure +
                              SimDuration::seconds(1);
            ctx_.sim.schedule_after(wait, [this, &vent, &xray] {
                SyncOutcome o;
                o.completed = true;
                o.apnea_s = 0.0;
                o.image_sharp =
                    !xray.results().empty() && xray.results().back().sharp;
                (void)vent;
                outcomes_.push_back(o);
            });
        });
        return;
    }

    // Step 1: walk to the ventilator, pause it.
    ctx_.sim.schedule_after(reaction(), [this, &vent, &xray] {
        const SimTime paused_at = ctx_.sim.now();
        vent.pause(vent.config().max_pause);
        // Step 2: after a beat, shoot.
        const auto shoot_gap =
            SimDuration::from_seconds(cfg_.shoot_delay_s) +
            SimDuration::from_seconds(
                rng_.lognormal(std::log(0.8), cfg_.reaction_sigma));
        ctx_.sim.schedule_after(shoot_gap, [this, &vent, &xray, paused_at] {
            xray.expose();
            // Step 3: resume after the exposure — possibly distracted.
            double back_s = cfg_.median_reaction_s +
                            xray.config().prep_time.to_seconds() +
                            xray.config().exposure.to_seconds();
            back_s += rng_.lognormal(std::log(1.0), cfg_.reaction_sigma);
            if (rng_.bernoulli(cfg_.distraction_probability)) {
                back_s += cfg_.distraction_extra_s;
            }
            ctx_.sim.schedule_after(
                SimDuration::from_seconds(back_s),
                [this, &vent, &xray, paused_at] {
                    const bool was_paused =
                        vent.mode() == devices::VentMode::kPaused;
                    vent.resume();
                    SyncOutcome o;
                    o.completed = true;
                    o.command_retries = 0;
                    // Apnea lasted until resume or the safety auto-resume,
                    // whichever came first.
                    const double until_now =
                        (ctx_.sim.now() - paused_at).to_seconds();
                    o.apnea_s =
                        was_paused
                            ? until_now
                            : std::min(until_now,
                                       vent.config().max_pause.to_seconds());
                    o.image_sharp = !xray.results().empty() &&
                                    xray.results().back().sharp;
                    outcomes_.push_back(o);
                });
        });
    });
}

}  // namespace mcps::core
