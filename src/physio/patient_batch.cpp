#include "patient_batch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mcps::physio {

std::size_t PatientBatch::add(const PatientParameters& params) {
    params.validate();
    const std::size_t i = n_;
    // A zero slot in every lane array; zero is the initial drug state
    // and marks the dt-keyed factors as not yet built.
    for (auto* v : lane_arrays(*this)) v->push_back(0.0);

    const auto& pk = params.pk;
    v1_[i] = pk.v1_liters;
    k10_[i] = pk.k10_per_min;
    k12_[i] = pk.k12_per_min;
    k21_[i] = pk.k21_per_min;
    ke0_[i] = pk.ke0_per_min;

    const auto& pd = params.pd;
    gamma_[i] = pd.gamma;
    emax_[i] = pd.emax;
    ec50_pow_[i] = std::pow(pd.ec50_ng_ml, pd.gamma);

    const auto& rp = params.resp;
    base_rr_[i] = rp.baseline_rr_per_min;
    base_vt_[i] = rp.baseline_tidal_ml;
    deadspace_[i] = rp.deadspace_ml;
    base_paco2_[i] = rp.baseline_paco2_mmhg;
    fio2_[i] = rp.fio2;
    aa_grad_[i] = rp.aa_gradient_mmhg;
    apnea_thresh_[i] = rp.apnea_drive_threshold;
    co2_gain_[i] = rp.co2_gain;
    apnea_rise_[i] = rp.apnea_paco2_rise_mmhg_per_s;

    const auto& cp = params.cardio;
    base_hr_[i] = cp.baseline_hr_bpm;
    hypox_gain_[i] = cp.hypoxia_tachycardia_gain;
    severe_spo2_[i] = cp.severe_hypoxia_spo2;

    antag_hl_[i] = 1.0;
    drive_[i] = 1.0;
    rr_[i] = rp.baseline_rr_per_min;
    tidal_[i] = rp.baseline_tidal_ml;
    paco2_[i] = rp.baseline_paco2_mmhg;
    // Same equilibrium initialization as the Patient constructor.
    pao2_[i] = rp.fio2 * (760.0 - 47.0) - rp.baseline_paco2_mmhg / 0.8 -
               rp.aa_gradient_mmhg;
    hr_[i] = cp.baseline_hr_bpm;

    params_.push_back(params);
    ++n_;
    return i;
}

void PatientBatch::reserve(std::size_t n) {
    for (auto* v : lane_arrays(*this)) v->reserve(n);
    params_.reserve(n);
}

void PatientBatch::bolus(std::size_t i, Dose d) {
    if (d < Dose::zero()) throw std::invalid_argument("bolus: negative dose");
    a1_[i] += d.as_mg();
    delivered_[i] += d.as_mg();
}

void PatientBatch::set_infusion_rate(std::size_t i, InfusionRate r) {
    if (r < InfusionRate::zero()) {
        throw std::invalid_argument("set_infusion_rate: negative rate");
    }
    rate_mg_h_[i] = r.as_mg_per_hour();
}

void PatientBatch::give_antagonist(std::size_t i, double potency,
                                   double half_life_s) {
    if (potency <= 0 || half_life_s <= 0) {
        throw std::invalid_argument("give_antagonist: non-positive parameter");
    }
    antag_level_[i] = 1.0;
    antag_potency_[i] = potency;
    antag_hl_[i] = half_life_s;
}

void PatientBatch::refresh_factors(std::size_t i, double dt) noexcept {
    // Expression-for-expression the factors Patient::step recomputes.
    const PatientParameters& p = params_[i];
    factor_dt_[i] = dt;
    co2_alpha_[i] = 1.0 - std::exp(-dt / p.resp.tau_co2_s);
    o2_alpha_[i] = 1.0 - std::exp(-dt / p.resp.tau_o2_s);
    hr_alpha_[i] = 1.0 - std::exp(-dt / p.cardio.tau_hr_s);
}

namespace {
struct Deriv {
    double da1, da2, dce;
};
}  // namespace

void PatientBatch::step_range(std::size_t first, std::size_t last,
                              double dt_seconds) {
    if (dt_seconds <= 0) {
        throw std::invalid_argument("PatientBatch::step_range: dt <= 0");
    }
    if (first > last || last > n_) {
        throw std::out_of_range("PatientBatch::step_range: bad lane range");
    }
    const double dt = dt_seconds;
    const double dt_min = dt_seconds / 60.0;
    // Breathing-pattern relaxation (Patient::step_respiration), the same
    // for every lane.
    const double pattern_alpha = 1.0 - std::exp(-dt / 15.0);

    // Three passes over the range, each in the scalar expression order.
    // A lane's passes depend only on that lane, so splitting the loop
    // changes no value.

    // --- Pass 1, PK: one RK4 step, expression-for-expression the scalar
    // PkTwoCompartment::step so lanes stay bit-identical. No calls.
    for (std::size_t i = first; i < last; ++i) {
        const double u_mg_per_min = rate_mg_h_[i] / 60.0;
        const double k10 = k10_[i];
        const double k12 = k12_[i];
        const double k21 = k21_[i];
        const double ke0 = ke0_[i];
        const double v1 = v1_[i];

        auto f = [&](double a1, double a2, double ce) -> Deriv {
            const double c1 = a1 * 1000.0 / v1;
            return Deriv{
                u_mg_per_min - (k10 + k12) * a1 + k21 * a2,
                k12 * a1 - k21 * a2,
                ke0 * (c1 - ce),
            };
        };

        const Deriv k1 = f(a1_[i], a2_[i], ce_[i]);
        const Deriv k2 = f(a1_[i] + 0.5 * dt_min * k1.da1,
                           a2_[i] + 0.5 * dt_min * k1.da2,
                           ce_[i] + 0.5 * dt_min * k1.dce);
        const Deriv k3 = f(a1_[i] + 0.5 * dt_min * k2.da1,
                           a2_[i] + 0.5 * dt_min * k2.da2,
                           ce_[i] + 0.5 * dt_min * k2.dce);
        const Deriv k4 = f(a1_[i] + dt_min * k3.da1,
                           a2_[i] + dt_min * k3.da2,
                           ce_[i] + dt_min * k3.dce);

        const double a1_before = a1_[i];
        const double a2_before = a2_[i];
        a1_[i] += dt_min / 6.0 * (k1.da1 + 2 * k2.da1 + 2 * k3.da1 + k4.da1);
        a2_[i] += dt_min / 6.0 * (k1.da2 + 2 * k2.da2 + 2 * k3.da2 + k4.da2);
        ce_[i] += dt_min / 6.0 * (k1.dce + 2 * k2.dce + 2 * k3.dce + k4.dce);
        if (a1_[i] < std::numeric_limits<double>::min()) a1_[i] = 0;
        if (a2_[i] < std::numeric_limits<double>::min()) a2_[i] = 0;
        if (ce_[i] < std::numeric_limits<double>::min()) ce_[i] = 0;

        const double input_mg = u_mg_per_min * dt_min;
        delivered_[i] += input_mg;
        const double eliminated =
            input_mg - ((a1_[i] - a1_before) + (a2_[i] - a2_before));
        if (eliminated > 0) eliminated_[i] += eliminated;
    }

    // --- Pass 2: antagonist decay (Patient::step) and respiration
    // (Patient::step_respiration, no ventilator path). The three pow
    // calls that depend on lane state live here; a lane with an active
    // antagonist also makes the scalar model's exp and EC50 pow.
    for (std::size_t i = first; i < last; ++i) {
        if (factor_dt_[i] != dt) refresh_factors(i, dt);

        if (antag_level_[i] > 0) {
            antag_level_[i] *=
                std::exp(-dt * 0.6931471805599453 / antag_hl_[i]);
            if (antag_level_[i] < 1e-4) antag_level_[i] = 0.0;
        }

        // hill_effect inlined with the antagonist-scaled EC50. While
        // potency * level is zero the scale is exactly 1, so the EC50
        // term is the cached pow(ec50, gamma).
        const double antag = antag_potency_[i] * antag_level_[i];
        double effect = 0.0;
        const double c = ce_[i];
        if (c > 0) {
            const double num = std::pow(c, gamma_[i]);
            const double ec50_pow =
                antag == 0.0
                    ? ec50_pow_[i]
                    : std::pow(params_[i].pd.ec50_ng_ml * (1.0 + antag),
                               gamma_[i]);
            effect = emax_[i] * num / (num + ec50_pow);
        }
        double drive = 1.0 - effect;
        const double co2_excess =
            std::max(0.0, (paco2_[i] - base_paco2_[i]) / base_paco2_[i]);
        drive *= 1.0 + co2_gain_[i] * co2_excess;
        drive = std::clamp(drive, 0.0, 1.5);
        drive_[i] = drive;

        if (drive < apnea_thresh_[i]) {
            rr_[i] = 0.0;
            tidal_[i] = 0.0;
        } else {
            const double target_rr = base_rr_[i] * std::pow(drive, 0.7);
            const double target_vt = base_vt_[i] * std::pow(drive, 0.3);
            rr_[i] += pattern_alpha * (target_rr - rr_[i]);
            tidal_[i] += pattern_alpha * (target_vt - tidal_[i]);
        }
    }

    // --- Pass 3: gas exchange (Patient::step_gas_exchange) and cardio
    // (Patient::step_cardio) on the cached factors. No calls.
    for (std::size_t i = first; i < last; ++i) {
        const double va =
            rr_[i] * std::max(0.0, tidal_[i] - deadspace_[i]) / 1000.0;
        const double va_base =
            base_rr_[i] * (base_vt_[i] - deadspace_[i]) / 1000.0;

        if (va < 0.05 * va_base) {
            paco2_[i] += apnea_rise_[i] * dt;
        } else {
            const double paco2_eq =
                std::min(130.0, base_paco2_[i] * va_base / va);
            paco2_[i] += (paco2_eq - paco2_[i]) * co2_alpha_[i];
        }
        paco2_[i] = std::clamp(paco2_[i], 15.0, 140.0);

        double pao2_eq =
            fio2_[i] * (760.0 - 47.0) - paco2_[i] / 0.8 - aa_grad_[i];
        if (va < 0.05 * va_base) pao2_eq = 30.0;
        pao2_eq = std::max(20.0, pao2_eq);
        pao2_[i] += (pao2_eq - pao2_[i]) * o2_alpha_[i];

        const double spo2 = severinghaus_spo2(pao2_[i]);
        double target = base_hr_[i];
        const double desat = std::max(0.0, 96.0 - spo2);
        if (spo2 > severe_spo2_[i]) {
            target += hypox_gain_[i] * desat;
        } else {
            target = std::max(25.0, base_hr_[i] - 1.5 * desat);
        }
        hr_[i] += (target - hr_[i]) * hr_alpha_[i];

        elapsed_[i] += dt;
    }
}

std::size_t PatientBatch::state_bytes() const noexcept {
    std::size_t bytes = 0;
    for (const auto* v : lane_arrays(*this)) {
        bytes += v->capacity() * sizeof(double);
    }
    bytes += params_.capacity() * sizeof(PatientParameters);
    return bytes;
}

}  // namespace mcps::physio
