#include "patient_batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
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

/// Two lanes of doubles (a GCC vector: one SSE2 register on x86-64).
/// Arithmetic, comparisons and `?:` apply lane by lane, and a scalar
/// operand is broadcast, so a lane body written over its lane type `L`
/// reads the same for `double` and `Pair`.
using Pair = double __attribute__((vector_size(2 * sizeof(double))));

template <typename L>
L load(const std::vector<double>& v, std::size_t i) noexcept {
    L x{};
    std::memcpy(&x, v.data() + i, sizeof x);
    return x;
}

template <typename L>
void store(std::vector<double>& v, std::size_t i, L x) noexcept {
    std::memcpy(v.data() + i, &x, sizeof x);
}

// std::max, std::min and std::clamp, with libstdc++'s comparisons (so
// the same value for every input, signed zeros and NaN included),
// spelled with `?:` so that they also apply to a Pair.
template <typename A, typename B>
auto lane_max(A a, B b) noexcept {
    return a < b ? b : a;
}
template <typename A, typename B>
auto lane_min(A a, B b) noexcept {
    return b < a ? b : a;
}
template <typename L>
L lane_clamp(L v, double lo, double hi) noexcept {
    return lane_min(lane_max(v, lo), hi);
}

/// Calls body(Pair{}, i) for lanes i, i + 1 of [first, last), two at a
/// time, and body(0.0, last - 1) for a lone last lane.
template <typename Body>
void for_lane_pairs(std::size_t first, std::size_t last, Body&& body) {
    std::size_t i = first;
    for (; last - i >= 2; i += 2) body(Pair{}, i);
    if (i < last) body(0.0, i);
}

template <typename L>
struct Deriv {
    L da1, da2, dce;
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

    // Four passes over the range, each in the scalar expression order.
    // A lane's passes depend only on that lane, so splitting the loop
    // changes no value. Passes 1 and 4 make no call and step two lanes
    // at a time; passes 2 and 3 hold the libm calls, and since no call
    // in either waits on another lane's, the CPU overlaps them.

    // --- Pass 1, PK: one RK4 step, expression-for-expression the scalar
    // PkTwoCompartment::step so lanes stay bit-identical.
    for_lane_pairs(first, last, [&](auto lane, std::size_t i) {
        using L = decltype(lane);
        const L u_mg_per_min = load<L>(rate_mg_h_, i) / 60.0;
        const L k10 = load<L>(k10_, i);
        const L k12 = load<L>(k12_, i);
        const L k21 = load<L>(k21_, i);
        const L ke0 = load<L>(ke0_, i);
        const L v1 = load<L>(v1_, i);

        auto f = [&](L a1, L a2, L ce) -> Deriv<L> {
            const L c1 = a1 * 1000.0 / v1;
            return Deriv<L>{
                u_mg_per_min - (k10 + k12) * a1 + k21 * a2,
                k12 * a1 - k21 * a2,
                ke0 * (c1 - ce),
            };
        };

        const L a1_before = load<L>(a1_, i);
        const L a2_before = load<L>(a2_, i);
        const L ce_before = load<L>(ce_, i);
        const Deriv<L> k1 = f(a1_before, a2_before, ce_before);
        const Deriv<L> k2 = f(a1_before + 0.5 * dt_min * k1.da1,
                              a2_before + 0.5 * dt_min * k1.da2,
                              ce_before + 0.5 * dt_min * k1.dce);
        const Deriv<L> k3 = f(a1_before + 0.5 * dt_min * k2.da1,
                              a2_before + 0.5 * dt_min * k2.da2,
                              ce_before + 0.5 * dt_min * k2.dce);
        const Deriv<L> k4 = f(a1_before + dt_min * k3.da1,
                              a2_before + dt_min * k3.da2,
                              ce_before + dt_min * k3.dce);

        L a1 = a1_before +
               dt_min / 6.0 * (k1.da1 + 2 * k2.da1 + 2 * k3.da1 + k4.da1);
        L a2 = a2_before +
               dt_min / 6.0 * (k1.da2 + 2 * k2.da2 + 2 * k3.da2 + k4.da2);
        L ce = ce_before +
               dt_min / 6.0 * (k1.dce + 2 * k2.dce + 2 * k3.dce + k4.dce);
        constexpr double kMinNormal = std::numeric_limits<double>::min();
        a1 = a1 < kMinNormal ? 0.0 : a1;
        a2 = a2 < kMinNormal ? 0.0 : a2;
        ce = ce < kMinNormal ? 0.0 : ce;
        store(a1_, i, a1);
        store(a2_, i, a2);
        store(ce_, i, ce);

        const L input_mg = u_mg_per_min * dt_min;
        store(delivered_, i, load<L>(delivered_, i) + input_mg);
        const L eliminated =
            input_mg - ((a1 - a1_before) + (a2 - a2_before));
        const L eliminated_total = load<L>(eliminated_, i);
        store(eliminated_, i,
              eliminated > 0.0 ? eliminated_total + eliminated
                               : eliminated_total);
    });

    // --- Pass 2: antagonist decay (Patient::step) and the respiratory
    // drive (Patient::step_respiration up to `drive_ = drive`), written
    // to drive_. One pow per lane with drug on board; a lane with an
    // active antagonist also makes the scalar model's exp and EC50 pow.
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
        drive_[i] = std::clamp(drive, 0.0, 1.5);
    }

    // --- Pass 3: the breathing pattern (the rest of
    // Patient::step_respiration, no ventilator path) from drive_. Two
    // pow calls per breathing lane.
    for (std::size_t i = first; i < last; ++i) {
        const double drive = drive_[i];
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

    // --- Pass 4: gas exchange (Patient::step_gas_exchange) and cardio
    // (Patient::step_cardio) on the cached factors. Where the scalar
    // model branches, a lane computes both arms and keeps the one the
    // scalar model takes.
    for_lane_pairs(first, last, [&](auto lane, std::size_t i) {
        using L = decltype(lane);
        const L base_rr = load<L>(base_rr_, i);
        const L deadspace = load<L>(deadspace_, i);
        const L base_paco2 = load<L>(base_paco2_, i);
        const L va = load<L>(rr_, i) *
                     lane_max(0.0, load<L>(tidal_, i) - deadspace) / 1000.0;
        const L va_base =
            base_rr * (load<L>(base_vt_, i) - deadspace) / 1000.0;
        const auto apneic = va < 0.05 * va_base;

        L paco2 = load<L>(paco2_, i);
        const L paco2_eq = lane_min(130.0, base_paco2 * va_base / va);
        paco2 = apneic ? paco2 + load<L>(apnea_rise_, i) * dt
                       : paco2 + (paco2_eq - paco2) * load<L>(co2_alpha_, i);
        paco2 = lane_clamp(paco2, 15.0, 140.0);
        store(paco2_, i, paco2);

        L pao2_eq = load<L>(fio2_, i) * (760.0 - 47.0) - paco2 / 0.8 -
                    load<L>(aa_grad_, i);
        pao2_eq = apneic ? 30.0 : pao2_eq;
        pao2_eq = lane_max(20.0, pao2_eq);
        L pao2 = load<L>(pao2_, i);
        pao2 = pao2 + (pao2_eq - pao2) * load<L>(o2_alpha_, i);
        store(pao2_, i, pao2);

        const L spo2 = severinghaus_curve(pao2);
        const L base_hr = load<L>(base_hr_, i);
        const L desat = lane_max(0.0, 96.0 - spo2);
        const L target = spo2 > load<L>(severe_spo2_, i)
                             ? base_hr + load<L>(hypox_gain_, i) * desat
                             : lane_max(25.0, base_hr - 1.5 * desat);
        L hr = load<L>(hr_, i);
        hr = hr + (target - hr) * load<L>(hr_alpha_, i);
        store(hr_, i, hr);

        store(elapsed_, i, load<L>(elapsed_, i) + dt);
    });
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
