/// \file patient_batch.hpp
/// \brief Struct-of-arrays batched stepping for populations of patients.
///
/// `Patient` is the scalar reference model; `PatientBatch` holds the same
/// state for N patients in parallel arrays and advances any contiguous
/// lane range with one call. The per-lane arithmetic replicates the
/// scalar expression sequences *exactly* (same operations, same order,
/// same clamps), so under the project's default compile flags (no
/// -ffast-math, no FMA contraction on the generic x86-64 target) a batch
/// lane is bit-identical to a scalar `Patient` fed the same inputs — a
/// property the differential suite in tests/hospital pins.
///
/// What the batch buys is locality and instruction-level parallelism,
/// not different math. Stepping thousands of scalar `Patient` objects
/// walks heap-scattered objects (each carrying a `std::string` label and
/// an optional ventilator block); the batch streams dense `double`
/// arrays. Like `Patient`, it keeps per lane the factors that depend only
/// on the lane's parameters and `dt` (`pow(ec50, gamma)` and the three
/// `1 - exp(-dt/tau)` relaxation factors of PaCO2, PaO2 and heart rate)
/// and rebuilds a lane's dt factors only when the `dt` it is stepped with
/// changes. A lane-step without an active antagonist makes three `pow`
/// calls: `pow(ce, gamma)`, then `pow(drive, 0.7)` and `pow(drive, 0.3)`
/// on the drive that the first one yields.
///
/// Each step walks the range in four passes: PK; antagonist and
/// respiratory drive; breathing pattern; gas exchange and cardio. The
/// drive pass writes `drive_` and the breathing pass reads it back, so
/// no `pow` in either pass waits on another lane's: the CPU overlaps the
/// calls of neighbouring lanes instead of running one lane's three as a
/// chain. The PK and gas-exchange passes make no call; their lane bodies
/// are written once over the lane type and step two lanes at a time as
/// a GCC vector of two doubles, with a one-lane tail for a range of odd
/// length. Every lane still runs the scalar expression sequence, so the
/// vector steps change no bit.
///
/// Mechanical ventilation is intentionally NOT supported here — it is an
/// E4 single-patient scenario feature, and hospital-scale cohorts are
/// spontaneously breathing PCA patients. `add()` rejects nothing, but
/// there is simply no ventilator input on this API.
///
/// Thread-safety: disjoint lane ranges may be stepped from different
/// threads concurrently (no shared mutable state across lanes; the
/// factor caches are per lane too); the hospital engine exploits this by
/// giving each ward a contiguous range.

#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "patient.hpp"

namespace mcps::physio {

/// SoA state + parameters for a cohort of spontaneously breathing
/// patients. Lanes are append-only; indices are stable for the lifetime
/// of the batch.
class PatientBatch {
public:
    PatientBatch() = default;

    /// Append one patient initialized exactly like `Patient{params}`
    /// (baseline vitals, gas-exchange equilibrium PaO2). Returns the new
    /// lane index. \throws std::invalid_argument on invalid parameters.
    std::size_t add(const PatientParameters& params);

    void reserve(std::size_t n);
    [[nodiscard]] std::size_t size() const noexcept { return n_; }

    /// Advance lanes [first, last) by \p dt_seconds (> 0). Replicates
    /// `Patient::step` per lane. Ranges must be in-bounds.
    void step_range(std::size_t first, std::size_t last, double dt_seconds);
    /// Advance every lane.
    void step_all(double dt_seconds) { step_range(0, n_, dt_seconds); }

    /// Drug inputs (mirror the scalar API).
    void bolus(std::size_t i, Dose d);
    void set_infusion_rate(std::size_t i, InfusionRate r);
    [[nodiscard]] InfusionRate infusion_rate(std::size_t i) const noexcept {
        return InfusionRate::mg_per_hour(rate_mg_h_[i]);
    }
    void give_antagonist(std::size_t i, double potency, double half_life_s);
    [[nodiscard]] double antagonist_level(std::size_t i) const noexcept {
        return antag_level_[i];
    }

    /// Observables (same value types and clamps as `Patient`).
    [[nodiscard]] SpO2 spo2(std::size_t i) const noexcept {
        return SpO2::percent_clamped(spo2_raw(i));
    }
    [[nodiscard]] RespRate resp_rate(std::size_t i) const noexcept {
        return RespRate::per_minute_clamped(rr_[i]);
    }
    [[nodiscard]] EtCO2 etco2(std::size_t i) const noexcept {
        if (is_apneic(i)) return EtCO2::mmhg_clamped(0.0);
        return EtCO2::mmhg_clamped(paco2_[i] - 4.0);
    }
    [[nodiscard]] HeartRate heart_rate(std::size_t i) const noexcept {
        return HeartRate::bpm_clamped(hr_[i]);
    }
    [[nodiscard]] bool is_apneic(std::size_t i) const noexcept {
        return rr_[i] <= 0.5;
    }
    [[nodiscard]] double respiratory_drive(std::size_t i) const noexcept {
        return drive_[i];
    }
    [[nodiscard]] double paco2_mmhg(std::size_t i) const noexcept {
        return paco2_[i];
    }
    [[nodiscard]] double pao2_mmhg(std::size_t i) const noexcept {
        return pao2_[i];
    }
    /// Raw (unclamped) SpO2 percent, for aggregation without quantization.
    [[nodiscard]] double spo2_raw(std::size_t i) const noexcept {
        return severinghaus_spo2(pao2_[i]);
    }
    [[nodiscard]] Vitals vitals(std::size_t i) const {
        return Vitals{spo2(i),      resp_rate(i),  etco2(i),
                      heart_rate(i), effect_site(i), is_apneic(i)};
    }

    /// PK observables.
    [[nodiscard]] Concentration effect_site(std::size_t i) const noexcept {
        return Concentration::ng_per_ml(ce_[i]);
    }
    [[nodiscard]] Concentration plasma(std::size_t i) const noexcept {
        return Concentration::ng_per_ml(a1_[i] * 1000.0 / v1_[i]);
    }
    [[nodiscard]] Dose body_burden(std::size_t i) const noexcept {
        return Dose::mg(a1_[i] + a2_[i]);
    }
    [[nodiscard]] Dose total_delivered(std::size_t i) const noexcept {
        return Dose::mg(delivered_[i]);
    }
    [[nodiscard]] Dose total_eliminated(std::size_t i) const noexcept {
        return Dose::mg(eliminated_[i]);
    }

    [[nodiscard]] const PatientParameters& parameters(std::size_t i) const {
        return params_[i];
    }
    [[nodiscard]] double elapsed_seconds(std::size_t i) const noexcept {
        return elapsed_[i];
    }

    /// Approximate resident bytes of all lane arrays (capacity-based).
    /// The hospital flat-memory test asserts this scales with patients,
    /// never with simulated time.
    [[nodiscard]] std::size_t state_bytes() const noexcept;

private:
    std::size_t n_ = 0;

    /// Recompute lane \p i's dt-keyed factors for \p dt.
    void refresh_factors(std::size_t i, double dt) noexcept;

    /// Every per-lane array, listed once: `add`, `reserve` and
    /// `state_bytes` walk this list, so none of them can miss an array.
    template <typename Self>
    static auto lane_arrays(Self& self) {
        return std::array{
            &self.v1_, &self.k10_, &self.k12_, &self.k21_, &self.ke0_,
            &self.gamma_, &self.emax_, &self.ec50_pow_,
            &self.base_rr_, &self.base_vt_, &self.deadspace_,
            &self.base_paco2_, &self.fio2_, &self.aa_grad_,
            &self.apnea_thresh_, &self.co2_gain_, &self.apnea_rise_,
            &self.base_hr_, &self.hypox_gain_, &self.severe_spo2_,
            &self.factor_dt_, &self.co2_alpha_, &self.o2_alpha_,
            &self.hr_alpha_,
            &self.a1_, &self.a2_, &self.ce_, &self.delivered_,
            &self.eliminated_, &self.rate_mg_h_,
            &self.antag_level_, &self.antag_potency_, &self.antag_hl_,
            &self.drive_, &self.rr_, &self.tidal_, &self.paco2_,
            &self.pao2_, &self.hr_, &self.elapsed_};
    }

    // Parameters read every step (one entry per lane). Those read only
    // to build a factor, or only while an antagonist is active, stay in
    // the cold copy `params_`.
    std::vector<double> v1_, k10_, k12_, k21_, ke0_;
    // ec50_pow_ is pow(ec50, gamma): the Hill denominator while no
    // antagonist scales the EC50.
    std::vector<double> gamma_, emax_, ec50_pow_;
    std::vector<double> base_rr_, base_vt_, deadspace_, base_paco2_, fio2_,
        aa_grad_, apnea_thresh_, co2_gain_, apnea_rise_;
    std::vector<double> base_hr_, hypox_gain_, severe_spo2_;

    // Factors keyed on dt: 1 - exp(-dt/tau) for PaCO2, PaO2 and heart
    // rate. factor_dt_ is the dt they were built for; 0 means not yet
    // built, since every valid dt is > 0.
    std::vector<double> factor_dt_, co2_alpha_, o2_alpha_, hr_alpha_;

    // State (one entry per lane). SpO2 is not stored: it is the
    // Severinghaus curve of PaO2, derived on read.
    std::vector<double> a1_, a2_, ce_, delivered_, eliminated_;
    std::vector<double> rate_mg_h_;
    std::vector<double> antag_level_, antag_potency_, antag_hl_;
    std::vector<double> drive_, rr_, tidal_, paco2_, pao2_, hr_, elapsed_;

    // Cold copy, read by parameters(i), factor rebuilds and the
    // antagonist path.
    std::vector<PatientParameters> params_;
};

}  // namespace mcps::physio
