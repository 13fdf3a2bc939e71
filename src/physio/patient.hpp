/// \file patient.hpp
/// \brief Whole-patient physiological model: PK/PD opioid response,
/// respiratory gas exchange, and cardiovascular reaction.
///
/// This is the "patient in the loop" the DAC'10 paper identifies as the
/// missing piece for validating closed-loop MCPS: a deterministic,
/// parameterizable virtual patient whose respiratory depression under
/// opioid load is what the PCA safety interlock must detect and arrest.
///
/// Structure (all first-order / RK4-integrated continuous dynamics):
///
///   drug input --> PkTwoCompartment --> effect-site Ce
///   Ce --> Hill PD --> respiratory drive suppression
///   drive (+ hypercapnic feedback) --> RR, tidal volume --> alveolar
///   ventilation --> PaCO2 dynamics --> alveolar O2 --> PaO2 --> SpO2
///   (Severinghaus); hypoxia/pain --> heart rate.
///
/// The model is intentionally *qualitative-fidelity*: parameter defaults
/// produce clinically plausible trajectories (apnea after large opioid
/// overshoot, SpO2 collapse over minutes not seconds, EtCO2 loss at
/// apnea), which is exactly what interlock/alarm logic must be exercised
/// against. It is not a predictive clinical model.

#pragma once

#include <algorithm>
#include <optional>
#include <string>

#include "pk_model.hpp"
#include "units.hpp"

namespace mcps::physio {

/// Pharmacodynamic (Hill) parameters mapping effect-site concentration to
/// fractional respiratory-drive suppression in [0, emax].
struct PdParameters {
    double ec50_ng_ml = 50.0;  ///< concentration of half-maximal depression
    double gamma = 2.4;        ///< Hill steepness
    double emax = 1.0;         ///< maximal achievable suppression

    void validate() const;
};

/// Fractional drive suppression for a given effect-site concentration.
[[nodiscard]] double hill_effect(const PdParameters& pd, Concentration ce);

/// Respiratory / gas-exchange parameters.
struct RespiratoryParameters {
    double baseline_rr_per_min = 14.0;
    double baseline_tidal_ml = 480.0;
    double deadspace_ml = 150.0;
    double baseline_paco2_mmhg = 40.0;
    double fio2 = 0.21;              ///< inspired O2 fraction
    double aa_gradient_mmhg = 8.0;   ///< alveolar-arterial O2 gradient
    double tau_co2_s = 110.0;        ///< PaCO2 equilibration time constant
    double tau_o2_s = 35.0;          ///< PaO2 equilibration time constant
    double apnea_drive_threshold = 0.16;  ///< drive below this => apnea
    double co2_gain = 1.1;  ///< hypercapnic ventilatory feedback gain
    double apnea_paco2_rise_mmhg_per_s = 0.06;  ///< classic apneic CO2 rise

    void validate() const;
};

/// Cardiovascular parameters (heart-rate response only).
struct CardioParameters {
    double baseline_hr_bpm = 76.0;
    double hypoxia_tachycardia_gain = 0.9;  ///< HR rise per unit desaturation
    double severe_hypoxia_spo2 = 62.0;      ///< below this: bradycardia
    double tau_hr_s = 20.0;

    void validate() const;
};

/// Complete per-patient parameter set.
struct PatientParameters {
    std::string label = "adult-default";
    double weight_kg = 75.0;
    PkParameters pk{};
    PdParameters pd{};
    RespiratoryParameters resp{};
    CardioParameters cardio{};

    void validate() const;
};

/// Mechanical-ventilation override (ventilator scenario, E4): while
/// engaged the ventilator dictates RR and tidal volume and the intrinsic
/// respiratory drive is bypassed.
struct MechanicalVentilation {
    RespRate rate{RespRate::per_minute(12.0)};
    double tidal_ml = 500.0;
};

/// A snapshot of the vital signs a bedside monitor could observe.
struct Vitals {
    SpO2 spo2{};
    RespRate resp_rate{};
    EtCO2 etco2{};
    HeartRate heart_rate{};
    Concentration effect_site{};
    bool apneic = false;
};

/// The virtual patient. Deterministic: identical inputs yield identical
/// trajectories (all stochastics live in sensor/device models).
class Patient {
public:
    explicit Patient(PatientParameters params);

    /// Advance physiology by \p dt_seconds (> 0, recommended <= 0.5 s).
    void step(double dt_seconds);

    /// Drug inputs.
    void bolus(Dose d) { pk_.bolus(d); }
    void set_infusion_rate(InfusionRate r);
    [[nodiscard]] InfusionRate infusion_rate() const noexcept { return rate_; }

    /// Administer an opioid antagonist (naloxone-like rescue). While
    /// active it multiplies the effective PD EC50 by (1 + potency *
    /// level); the level starts at 1 and decays exponentially with the
    /// given half-life — the classic "naloxone wears off before the
    /// opioid does" renarcotization hazard is therefore reproduced.
    void give_antagonist(double potency, double half_life_s);
    /// Current antagonist level in [0, 1].
    [[nodiscard]] double antagonist_level() const noexcept {
        return antagonist_level_;
    }

    /// Engage/disengage mechanical ventilation. While engaged with a
    /// nonzero rate, the ventilator breathes for the patient; engaging with
    /// rate zero models a *paused* ventilator (apnea) on a patient who
    /// cannot breathe spontaneously.
    void set_mechanical_ventilation(std::optional<MechanicalVentilation> mv) {
        mech_vent_ = mv;
    }
    [[nodiscard]] bool on_ventilator() const noexcept {
        return mech_vent_.has_value();
    }

    /// Observables.
    [[nodiscard]] Vitals vitals() const;
    [[nodiscard]] SpO2 spo2() const noexcept { return SpO2::percent_clamped(spo2_); }
    [[nodiscard]] RespRate resp_rate() const noexcept {
        return RespRate::per_minute_clamped(rr_);
    }
    [[nodiscard]] EtCO2 etco2() const noexcept;
    [[nodiscard]] HeartRate heart_rate() const noexcept {
        return HeartRate::bpm_clamped(hr_);
    }
    [[nodiscard]] bool is_apneic() const noexcept { return rr_ <= 0.5; }
    /// Current respiratory drive in [0, 1+]; < apnea threshold means apnea.
    [[nodiscard]] double respiratory_drive() const noexcept { return drive_; }
    [[nodiscard]] double paco2_mmhg() const noexcept { return paco2_; }
    [[nodiscard]] double pao2_mmhg() const noexcept { return pao2_; }

    [[nodiscard]] const PkTwoCompartment& pk() const noexcept { return pk_; }
    [[nodiscard]] const PatientParameters& parameters() const noexcept {
        return params_;
    }

    /// Simulated elapsed time, seconds (sum of all steps).
    [[nodiscard]] double elapsed_seconds() const noexcept { return elapsed_s_; }

private:
    void step_respiration();
    void step_gas_exchange(double dt);
    void step_cardio();
    /// Rebuild the four 1 - exp(-dt/tau) factors for \p dt.
    void refresh_factors(double dt) noexcept;

    PatientParameters params_;
    PkTwoCompartment pk_;
    InfusionRate rate_{};
    std::optional<MechanicalVentilation> mech_vent_;
    double antagonist_level_{0};
    double antagonist_potency_{0};
    double antagonist_half_life_s_{1};

    double drive_{1.0};
    double rr_;      ///< breaths/min
    double tidal_ml_;
    double paco2_;   ///< mmHg
    double pao2_;    ///< mmHg
    double spo2_;    ///< percent
    double hr_;      ///< bpm
    double elapsed_s_{0};

    // Run-invariant factors, built once instead of every step (the
    // technique of PatientBatch; each is the very expression it
    // replaces, so trajectories stay bit-identical).
    /// pow(ec50, gamma): the Hill EC50 term while potency * level is 0,
    /// where the antagonist's EC50 scale is exactly 1.
    double ec50_pow_;
    /// The dt the alphas below were built for; 0 = not built yet.
    double factor_dt_{0};
    double pattern_alpha_{0};  ///< 1 - exp(-dt / 15 s), breathing pattern
    double co2_alpha_{0};      ///< 1 - exp(-dt / tau_co2)
    double o2_alpha_{0};       ///< 1 - exp(-dt / tau_o2)
    double hr_alpha_{0};       ///< 1 - exp(-dt / tau_hr)
};

/// Severinghaus (1979) oxyhemoglobin dissociation approximation:
/// SpO2(PaO2) = 100 / (1 + 23400 / (p^3 + 150 p)), 0 for p <= 0, clamped
/// to [0, 100]. Written over the lane type \p L: `double`, or a GCC
/// vector of doubles on which the batched gas-exchange pass evaluates two
/// lanes at once. The clamp is std::clamp's comparisons spelled with
/// `?:`, which also apply lane by lane, so every lane type gives the
/// scalar value.
template <typename L>
[[nodiscard]] inline L severinghaus_curve(L p) noexcept {
    const L s = 100.0 / (1.0 + 23400.0 / (p * p * p + 150.0 * p));
    const L at_least_0 = s < 0.0 ? 0.0 : s;
    return p <= 0.0 ? 0.0 : (100.0 < at_least_0 ? 100.0 : at_least_0);
}

[[nodiscard]] inline double severinghaus_spo2(double pao2_mmhg) noexcept {
    return severinghaus_curve(pao2_mmhg);
}

}  // namespace mcps::physio
