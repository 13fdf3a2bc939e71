/// \file pulse_oximeter.hpp
/// \brief Pulse oximeter device: SpO2 + pulse rate publisher.
///
/// The sensor half of the PCA safety interlock. Publishes
/// "vitals/<bed>/spo2" and "vitals/<bed>/pulse_rate" every sample period,
/// with the realistic ~8 s SpO2 averaging lag that delays desaturation
/// detection (a key latency budget item for the E1/E2 experiments).

#pragma once

#include <memory>

#include "physio/patient.hpp"
#include "sensor.hpp"

namespace mcps::devices {

struct PulseOximeterConfig {
    std::string bed = "bed1";
    mcps::sim::SimDuration sample_period = mcps::sim::SimDuration::seconds(1);
    mcps::sim::SimDuration averaging_window = mcps::sim::SimDuration::seconds(8);
    double spo2_noise_sd = 0.6;
    double artifact_probability = 0.0;   ///< per sample; motion artifacts
    double artifact_magnitude = -18.0;   ///< artifacts read falsely LOW
    bool artifact_flagged = false;
    double dropout_probability = 0.0;    ///< per sample; probe-off
    mcps::sim::SimDuration dropout_duration = mcps::sim::SimDuration::seconds(25);
};

/// The device. Ground truth comes from the attached Patient.
class PulseOximeter : public Device {
public:
    PulseOximeter(DeviceContext ctx, std::string name,
                  const physio::Patient& patient, PulseOximeterConfig cfg = {});

    [[nodiscard]] const PulseOximeterConfig& config() const noexcept {
        return cfg_;
    }
    /// Fault-injection hooks (E8).
    void force_dropout(mcps::sim::SimDuration d);
    void force_artifact(mcps::sim::SimDuration d);
    [[nodiscard]] bool in_dropout() const noexcept;

protected:
    void on_start() override;
    void on_stop() override;

private:
    void sample_tick();

    const physio::Patient& patient_;
    PulseOximeterConfig cfg_;
    std::unique_ptr<SensorChannel> spo2_;
    std::unique_ptr<SensorChannel> pulse_;
    /// "sensor/<name>/spo2", resolved on the first sample (see
    /// TraceRecorder::signal).
    mcps::sim::Signal* spo2_signal_ = nullptr;
    mcps::sim::EventHandle tick_;
};

}  // namespace mcps::devices
