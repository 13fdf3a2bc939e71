#include "patient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mcps::physio {

void PdParameters::validate() const {
    if (ec50_ng_ml <= 0) throw std::invalid_argument("PdParameters: ec50 <= 0");
    if (gamma <= 0) throw std::invalid_argument("PdParameters: gamma <= 0");
    if (emax <= 0 || emax > 1.0) {
        throw std::invalid_argument("PdParameters: emax outside (0, 1]");
    }
}

double hill_effect(const PdParameters& pd, Concentration ce) {
    const double c = ce.as_ng_per_ml();
    if (c <= 0) return 0.0;
    const double num = std::pow(c, pd.gamma);
    return pd.emax * num / (num + std::pow(pd.ec50_ng_ml, pd.gamma));
}

void RespiratoryParameters::validate() const {
    if (baseline_rr_per_min <= 0) {
        throw std::invalid_argument("RespiratoryParameters: baseline RR <= 0");
    }
    if (baseline_tidal_ml <= deadspace_ml) {
        throw std::invalid_argument(
            "RespiratoryParameters: tidal volume must exceed deadspace");
    }
    if (fio2 <= 0 || fio2 > 1.0) {
        throw std::invalid_argument("RespiratoryParameters: fio2 outside (0, 1]");
    }
    if (tau_co2_s <= 0 || tau_o2_s <= 0) {
        throw std::invalid_argument("RespiratoryParameters: time constant <= 0");
    }
    if (apnea_drive_threshold < 0 || apnea_drive_threshold >= 1.0) {
        throw std::invalid_argument(
            "RespiratoryParameters: apnea threshold outside [0, 1)");
    }
}

void CardioParameters::validate() const {
    if (baseline_hr_bpm <= 0) {
        throw std::invalid_argument("CardioParameters: baseline HR <= 0");
    }
    if (tau_hr_s <= 0) throw std::invalid_argument("CardioParameters: tau <= 0");
}

void PatientParameters::validate() const {
    if (weight_kg <= 0) throw std::invalid_argument("PatientParameters: weight <= 0");
    pk.validate();
    pd.validate();
    resp.validate();
    cardio.validate();
}

Patient::Patient(PatientParameters params)
    : params_{std::move(params)},
      pk_{params_.pk},
      rr_{params_.resp.baseline_rr_per_min},
      tidal_ml_{params_.resp.baseline_tidal_ml},
      paco2_{params_.resp.baseline_paco2_mmhg},
      hr_{params_.cardio.baseline_hr_bpm} {
    params_.validate();
    // Start at gas-exchange equilibrium for the baseline ventilation.
    const double pao2_eq = params_.resp.fio2 * (760.0 - 47.0) -
                           paco2_ / 0.8 - params_.resp.aa_gradient_mmhg;
    pao2_ = pao2_eq;
    spo2_ = severinghaus_spo2(pao2_);
    ec50_pow_ = std::pow(params_.pd.ec50_ng_ml, params_.pd.gamma);
}

void Patient::refresh_factors(double dt) noexcept {
    factor_dt_ = dt;
    pattern_alpha_ = 1.0 - std::exp(-dt / 15.0);
    co2_alpha_ = 1.0 - std::exp(-dt / params_.resp.tau_co2_s);
    o2_alpha_ = 1.0 - std::exp(-dt / params_.resp.tau_o2_s);
    hr_alpha_ = 1.0 - std::exp(-dt / params_.cardio.tau_hr_s);
}

void Patient::set_infusion_rate(InfusionRate r) {
    if (r < InfusionRate::zero()) {
        throw std::invalid_argument("set_infusion_rate: negative rate");
    }
    rate_ = r;
}

void Patient::give_antagonist(double potency, double half_life_s) {
    if (potency <= 0 || half_life_s <= 0) {
        throw std::invalid_argument("give_antagonist: non-positive parameter");
    }
    antagonist_level_ = 1.0;
    antagonist_potency_ = potency;
    antagonist_half_life_s_ = half_life_s;
}

void Patient::step(double dt_seconds) {
    if (dt_seconds <= 0) throw std::invalid_argument("Patient::step: dt <= 0");
    if (dt_seconds != factor_dt_) refresh_factors(dt_seconds);
    pk_.step(dt_seconds, rate_);
    if (antagonist_level_ > 0) {
        antagonist_level_ *=
            std::exp(-dt_seconds * 0.6931471805599453 / antagonist_half_life_s_);
        if (antagonist_level_ < 1e-4) antagonist_level_ = 0.0;
    }
    step_respiration();
    step_gas_exchange(dt_seconds);
    step_cardio();
    elapsed_s_ += dt_seconds;
}

void Patient::step_respiration() {
    const auto& rp = params_.resp;

    if (mech_vent_) {
        // Ventilator dictates the breathing pattern outright.
        rr_ = mech_vent_->rate.as_per_minute();
        tidal_ml_ = mech_vent_->tidal_ml;
        drive_ = 1.0;  // drive is irrelevant while ventilated
        return;
    }

    // Drug suppression of central respiratory drive (hill_effect); an
    // active antagonist competitively raises the effective EC50.
    const auto& pd = params_.pd;
    const double antag = antagonist_potency_ * antagonist_level_;
    double effect = 0.0;
    if (const double c = pk_.effect_site().as_ng_per_ml(); c > 0) {
        const double num = std::pow(c, pd.gamma);
        const double ec50_pow =
            antag == 0.0 ? ec50_pow_
                         : std::pow(pd.ec50_ng_ml * (1.0 + antag), pd.gamma);
        effect = pd.emax * num / (num + ec50_pow);
    }
    double drive = 1.0 - effect;

    // Hypercapnic ventilatory response partially fights the depression
    // (the classic CO2 feedback loop); it cannot rescue a fully
    // suppressed drive, modeled by multiplying rather than adding.
    const double co2_excess =
        std::max(0.0, (paco2_ - rp.baseline_paco2_mmhg) / rp.baseline_paco2_mmhg);
    drive *= 1.0 + rp.co2_gain * co2_excess;
    drive = std::clamp(drive, 0.0, 1.5);
    drive_ = drive;

    if (drive < rp.apnea_drive_threshold) {
        // Apnea: no spontaneous breaths.
        rr_ = 0.0;
        tidal_ml_ = 0.0;
        return;
    }

    // Opioids depress rate more than depth; split the suppression with
    // exponents summing to 1 so minute ventilation scales ~linearly with
    // drive.
    const double target_rr = rp.baseline_rr_per_min * std::pow(drive, 0.7);
    const double target_vt = rp.baseline_tidal_ml * std::pow(drive, 0.3);
    // Breathing pattern adapts within a few breaths (~15 s time constant).
    rr_ += pattern_alpha_ * (target_rr - rr_);
    tidal_ml_ += pattern_alpha_ * (target_vt - tidal_ml_);
}

void Patient::step_gas_exchange(double dt) {
    const auto& rp = params_.resp;

    // Alveolar minute ventilation, L/min.
    const double va =
        rr_ * std::max(0.0, tidal_ml_ - rp.deadspace_ml) / 1000.0;
    const double va_base =
        rp.baseline_rr_per_min * (rp.baseline_tidal_ml - rp.deadspace_ml) /
        1000.0;

    if (va < 0.05 * va_base) {
        // Effective apnea: PaCO2 rises at the textbook apneic rate.
        paco2_ += rp.apnea_paco2_rise_mmhg_per_s * dt;
    } else {
        // Steady-state alveolar CO2 is inversely proportional to alveolar
        // ventilation (constant CO2 production); approach it first-order.
        const double paco2_eq = std::min(
            130.0, rp.baseline_paco2_mmhg * va_base / va);
        paco2_ += (paco2_eq - paco2_) * co2_alpha_;
    }
    paco2_ = std::clamp(paco2_, 15.0, 140.0);

    // Alveolar gas equation -> equilibrium arterial PO2.
    double pao2_eq =
        rp.fio2 * (760.0 - 47.0) - paco2_ / 0.8 - rp.aa_gradient_mmhg;
    if (va < 0.05 * va_base) {
        // During apnea the alveolar store is consumed; equilibrium drops
        // far below the alveolar-gas value. 30 mmHg is a floor representing
        // mixed-venous admixture.
        pao2_eq = 30.0;
    }
    pao2_eq = std::max(20.0, pao2_eq);
    pao2_ += (pao2_eq - pao2_) * o2_alpha_;

    spo2_ = severinghaus_spo2(pao2_);
}

void Patient::step_cardio() {
    const auto& cp = params_.cardio;
    double target = cp.baseline_hr_bpm;
    const double desat = std::max(0.0, 96.0 - spo2_);
    if (spo2_ > cp.severe_hypoxia_spo2) {
        // Compensatory tachycardia proportional to desaturation.
        target += cp.hypoxia_tachycardia_gain * desat;
    } else {
        // Severe hypoxia: decompensation into bradycardia.
        target = std::max(25.0, cp.baseline_hr_bpm - 1.5 * desat);
    }
    hr_ += (target - hr_) * hr_alpha_;
}

EtCO2 Patient::etco2() const noexcept {
    // A capnometer measures exhaled CO2 per breath; with no breaths there
    // is no waveform and the reading collapses toward zero.
    if (is_apneic()) return EtCO2::mmhg_clamped(0.0);
    // Normal arterial-to-end-tidal gradient ~4 mmHg.
    return EtCO2::mmhg_clamped(paco2_ - 4.0);
}

Vitals Patient::vitals() const {
    return Vitals{
        spo2(),          resp_rate(), etco2(),
        heart_rate(),    pk_.effect_site(),
        is_apneic(),
    };
}

}  // namespace mcps::physio
