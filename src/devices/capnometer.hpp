/// \file capnometer.hpp
/// \brief Capnometer device: EtCO2 + respiratory-rate publisher.
///
/// The second sensor of the dual-sensor interlock. Capnography responds
/// to respiratory depression much faster than pulse oximetry (EtCO2
/// collapses at the first missed breath, while SpO2 can take minutes to
/// fall) — the dual-vs-single-sensor ablation in E1 quantifies exactly
/// this.

#pragma once

#include <memory>

#include "physio/patient.hpp"
#include "sensor.hpp"

namespace mcps::devices {

struct CapnometerConfig {
    std::string bed = "bed1";
    mcps::sim::SimDuration sample_period = mcps::sim::SimDuration::seconds(2);
    double etco2_noise_sd = 1.2;
    double rr_noise_sd = 0.6;
    double dropout_probability = 0.0;  ///< cannula displaced
    mcps::sim::SimDuration dropout_duration = mcps::sim::SimDuration::seconds(40);
};

class Capnometer : public Device {
public:
    Capnometer(DeviceContext ctx, std::string name,
               const physio::Patient& patient, CapnometerConfig cfg = {});

    void force_dropout(mcps::sim::SimDuration d);
    [[nodiscard]] const CapnometerConfig& config() const noexcept { return cfg_; }

protected:
    void on_start() override;
    void on_stop() override;

private:
    void sample_tick();

    const physio::Patient& patient_;
    CapnometerConfig cfg_;
    std::unique_ptr<SensorChannel> etco2_;
    std::unique_ptr<SensorChannel> rr_;
    /// "sensor/<name>/etco2" and ".../resp_rate", each resolved on its
    /// first sample (see TraceRecorder::signal).
    mcps::sim::Signal* etco2_signal_ = nullptr;
    mcps::sim::Signal* rr_signal_ = nullptr;
    mcps::sim::EventHandle tick_;
};

}  // namespace mcps::devices
