/// \file hospital_config.hpp
/// \brief Configuration for the hospital-scale scenario family.
///
/// One hospital simulation holds thousands of concurrent PCA patients
/// sharing finite infrastructure: each ward has ONE ICE bus (fixed
/// per-tick message service capacity), one supervisor, and a finite
/// nurse pool. The DAC'10 framing — and the resource-management surveys
/// in PAPERS.md — motivate modeling exactly this contention: an alarm
/// storm that saturates the bus and exhausts the nurses is a system
/// hazard no per-patient analysis can see.
///
/// Sharding is hierarchical and purely arithmetic: patients are split
/// into contiguous ward ranges (remainders spread over leading wards,
/// sim::shard_range), wards into the hospital. Wards are
/// fully independent — each has its own bus, nurses, and per-patient
/// RNG streams derived from (seed, patient index) — so the engine may
/// execute wards on any number of threads and still produce
/// byte-identical reports.

#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace mcps::hospital {

class HospitalConfigError : public std::invalid_argument {
public:
    using std::invalid_argument::invalid_argument;
};

/// Where the SpO2 safety interlock runs.
enum class InterlockPlacement : std::uint8_t {
    kOff,      ///< no automatic pump stop (hazard baseline)
    kLocal,    ///< pump-local: reads the bedside oximeter directly
    kCentral,  ///< supervisor+nurse path: alarm over the shared bus
};

/// Cohort composition (which archetypes the population samples from).
enum class CohortMix : std::uint8_t {
    kTypical,   ///< all typical adults
    kMixed,     ///< realistic ward mix (mostly typical, some high-risk)
    kHighRisk,  ///< post-op/sleep-apnea heavy mix
};

[[nodiscard]] std::string_view to_string(InterlockPlacement p) noexcept;
[[nodiscard]] std::string_view to_string(CohortMix m) noexcept;

struct HospitalConfig {
    std::uint64_t seed = 42;
    mcps::sim::SimDuration duration = mcps::sim::SimDuration::minutes(60);
    /// Physiology/control step. Every per-tick rate below is relative
    /// to this.
    double tick_s = 1.0;

    std::size_t patients = 2000;
    std::size_t wards = 20;
    std::size_t nurses_per_ward = 4;
    /// Vitals/alert messages one ward ICE bus services per tick.
    std::size_t bus_capacity_per_tick = 64;
    /// Bounded bus buffer per ward; arrivals beyond it are dropped (and
    /// counted). Keeps memory flat under sustained overload.
    std::size_t bus_queue_limit = 1024;

    CohortMix mix = CohortMix::kMixed;
    InterlockPlacement interlock = InterlockPlacement::kLocal;

    /// SpO2 percent below which monitors alert and interlocks act.
    double spo2_alarm_threshold = 90.0;
    /// Safety invariant: a pump still delivering this long after its
    /// patient's SpO2 dropped (and stayed) below the threshold is a
    /// deadline violation.
    double interlock_deadline_s = 60.0;
    /// Periodic vitals publish cadence per patient (staggered by index).
    double monitor_period_s = 2.0;
    /// Nurse occupancy per attended alarm.
    double nurse_service_s = 120.0;

    /// Mean PCA demand presses per patient-hour (Poisson per tick).
    double demand_per_hour = 4.0;
    double bolus_mg = 1.0;
    double infusion_mg_per_hour = 0.5;
    double lockout_s = 360.0;

    /// Synchronized overdose disturbance ("PCA by proxy at scale"):
    /// at storm_at_s, this fraction of patients receives storm_bolus_mg
    /// bypassing the lockout. 0 disables; a storm must start before the
    /// run ends.
    double storm_fraction = 0.0;
    double storm_bolus_mg = 3.0;
    double storm_at_s = 600.0;

    /// Execution width only: wards per worker thread. MUST NOT affect
    /// any report field (the jobs-invariance suite pins this).
    unsigned jobs = 1;

    /// \throws HospitalConfigError on an inconsistent configuration.
    void validate() const;

    /// Contiguous patient range [first, last) of ward \p w:
    /// sim::shard_range over the patients; pure.
    [[nodiscard]] std::pair<std::size_t, std::size_t> ward_range(
        std::size_t w) const noexcept;

    /// Simulation tick count (>= 1).
    [[nodiscard]] std::int64_t ticks() const noexcept;
};

}  // namespace mcps::hospital
