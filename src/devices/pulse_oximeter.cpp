#include "pulse_oximeter.hpp"

namespace mcps::devices {

PulseOximeter::PulseOximeter(DeviceContext ctx, std::string name,
                             const physio::Patient& patient,
                             PulseOximeterConfig cfg)
    : Device{ctx, std::move(name), DeviceKind::kPulseOximeter},
      patient_{patient},
      cfg_{std::move(cfg)} {
    add_capability("spo2");
    add_capability("pulse_rate");

    SensorChannelConfig spo2_cfg;
    spo2_cfg.metric = "spo2";
    spo2_cfg.sample_period = cfg_.sample_period;
    spo2_cfg.averaging_window = cfg_.averaging_window;
    spo2_cfg.noise_sd = cfg_.spo2_noise_sd;
    spo2_cfg.artifact_probability = cfg_.artifact_probability;
    spo2_cfg.artifact_magnitude = cfg_.artifact_magnitude;
    spo2_cfg.artifact_flagged = cfg_.artifact_flagged;
    spo2_cfg.dropout_probability = cfg_.dropout_probability;
    spo2_cfg.dropout_duration = cfg_.dropout_duration;
    spo2_cfg.clamp_lo = 0.0;
    spo2_cfg.clamp_hi = 100.0;
    spo2_ = std::make_unique<SensorChannel>(
        spo2_cfg, [this] { return patient_.spo2().as_percent(); },
        "vitals/" + cfg_.bed + "/spo2", sim().rng(this->name() + ".spo2"));

    SensorChannelConfig pr_cfg;
    pr_cfg.metric = "pulse_rate";
    pr_cfg.sample_period = cfg_.sample_period;
    pr_cfg.noise_sd = 1.5;
    // Pulse shares the probe: dropout handled jointly in sample_tick().
    pr_cfg.clamp_lo = 0.0;
    pr_cfg.clamp_hi = 300.0;
    pulse_ = std::make_unique<SensorChannel>(
        pr_cfg, [this] { return patient_.heart_rate().as_bpm(); },
        "vitals/" + cfg_.bed + "/pulse_rate", sim().rng(this->name() + ".pulse"));
}

void PulseOximeter::on_start() {
    tick_ = sim().schedule_periodic(cfg_.sample_period, [this] { sample_tick(); });
}

void PulseOximeter::on_stop() { tick_.cancel(); }

void PulseOximeter::sample_tick() {
    auto spo2_sample = spo2_->sample(sim().now());
    if (!spo2_sample) return;  // probe-off silences both channels
    publish(spo2_->topic(), *spo2_sample);
    if (spo2_signal_ == nullptr) {
        spo2_signal_ = &trace().signal("sensor/" + name() + "/spo2");
    }
    spo2_signal_->record(sim().now(), spo2_sample->value);
    if (auto pr = pulse_->sample(sim().now())) {
        publish(pulse_->topic(), *pr);
    }
}

void PulseOximeter::force_dropout(mcps::sim::SimDuration d) {
    spo2_->force_dropout(sim().now(), d);
}

void PulseOximeter::force_artifact(mcps::sim::SimDuration d) {
    spo2_->force_artifact(sim().now(), d);
}

bool PulseOximeter::in_dropout() const noexcept {
    return spo2_->in_dropout(sim().now());
}

}  // namespace mcps::devices
