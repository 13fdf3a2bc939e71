#include "capnometer.hpp"

namespace mcps::devices {

Capnometer::Capnometer(DeviceContext ctx, std::string name,
                       const physio::Patient& patient, CapnometerConfig cfg)
    : Device{ctx, std::move(name), DeviceKind::kCapnometer},
      patient_{patient},
      cfg_{std::move(cfg)} {
    add_capability("etco2");
    add_capability("resp_rate");

    SensorChannelConfig et_cfg;
    et_cfg.metric = "etco2";
    et_cfg.sample_period = cfg_.sample_period;
    et_cfg.noise_sd = cfg_.etco2_noise_sd;
    et_cfg.dropout_probability = cfg_.dropout_probability;
    et_cfg.dropout_duration = cfg_.dropout_duration;
    et_cfg.clamp_lo = 0.0;
    et_cfg.clamp_hi = 150.0;
    etco2_ = std::make_unique<SensorChannel>(
        et_cfg, [this] { return patient_.etco2().as_mmhg(); },
        "vitals/" + cfg_.bed + "/etco2", sim().rng(this->name() + ".etco2"));

    SensorChannelConfig rr_cfg;
    rr_cfg.metric = "resp_rate";
    rr_cfg.sample_period = cfg_.sample_period;
    rr_cfg.noise_sd = cfg_.rr_noise_sd;
    rr_cfg.clamp_lo = 0.0;
    rr_cfg.clamp_hi = 80.0;
    rr_ = std::make_unique<SensorChannel>(
        rr_cfg, [this] { return patient_.resp_rate().as_per_minute(); },
        "vitals/" + cfg_.bed + "/resp_rate", sim().rng(this->name() + ".rr"));
    etco2_pub_ = advertise(etco2_->topic());
    rr_pub_ = advertise(rr_->topic());
}

void Capnometer::on_start() {
    tick_ = sim().schedule_periodic(cfg_.sample_period, [this] { sample_tick(); });
}

void Capnometer::on_stop() { tick_.cancel(); }

void Capnometer::sample_tick() {
    auto et = etco2_->sample(sim().now());
    if (!et) return;  // cannula displaced silences both channels
    publish(etco2_pub_, *et);
    if (etco2_signal_ == nullptr) {
        etco2_signal_ = &trace().signal("sensor/" + name() + "/etco2",
                                        cfg_.sample_period);
    }
    etco2_signal_->record(sim().now(), et->value);
    if (auto rr = rr_->sample(sim().now())) {
        publish(rr_pub_, *rr);
        if (rr_signal_ == nullptr) {
            rr_signal_ = &trace().signal("sensor/" + name() + "/resp_rate",
                                         cfg_.sample_period);
        }
        rr_signal_->record(sim().now(), rr->value);
    }
}

void Capnometer::force_dropout(mcps::sim::SimDuration d) {
    etco2_->force_dropout(sim().now(), d);
    rr_->force_dropout(sim().now(), d);
}

}  // namespace mcps::devices
