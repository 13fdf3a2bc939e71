/// \file hospital_engine.hpp
/// \brief Hospital-scale simulation engine: thousands of patients,
/// shared ward ICE buses, finite nurse pools, streaming aggregation.
///
/// Execution model, per ward, per tick:
///
///   A. demand    : per patient, one Bernoulli press draw; a granted
///                  press boluses the pump (lockout permitting). The
///                  synchronized "storm" disturbance injects oversized
///                  boluses into a seeded patient subset at one tick.
///   B. physio    : one SoA PatientBatch::step_range over the ward's
///                  contiguous lane range.
///   C. sensing   : staggered periodic vitals publish onto the ward
///                  bus; patients below the SpO2 threshold additionally
///                  publish an alert EVERY tick (this is what makes an
///                  alarm storm flood the bus); the local interlock
///                  checks its own latest reading; the safety invariant
///                  clock (pump delivering while SpO2 sustained below
///                  threshold) advances.
///   D. bus       : the ward bus services at most bus_capacity_per_tick
///                  queued messages (bounded buffer, overflow drops are
///                  counted); the supervisor raises one alarm per
///                  patient crossing.
///   E. nurses    : free nurses attend queued alarms in FIFO order
///                  (stop the pump, antagonist rescue on deep desats)
///                  and stay busy for nurse_service_s.
///
/// Wards are fully independent, so the engine parallelizes ACROSS wards
/// only and merges per-ward aggregates in ward order: reports are
/// byte-identical for every jobs value. All aggregation is streaming
/// (RunningStats / fixed-bin Histogram / counters) — memory is O(
/// patients), never O(simulated time).

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "hospital_config.hpp"
#include "sim/stats.hpp"

namespace mcps::hospital {

/// Everything one hospital run produces. All fields except the
/// wall-clock throughput pair are deterministic functions of the config.
struct HospitalReport {
    // Config echo.
    std::uint64_t seed = 0;
    std::size_t patients = 0;
    std::size_t wards = 0;
    std::size_t nurses_per_ward = 0;
    unsigned jobs = 1;
    double duration_s = 0.0;
    std::string mix;
    std::string interlock;

    // Event counters (hospital-wide, merged in ward order).
    std::int64_t ticks = 0;
    std::uint64_t patient_steps = 0;
    std::uint64_t boluses = 0;
    std::uint64_t storm_boluses = 0;
    std::uint64_t vitals_messages = 0;
    std::uint64_t alert_messages = 0;
    std::uint64_t bus_dropped = 0;
    std::uint64_t bus_saturated_ticks = 0;
    std::uint64_t max_bus_queue = 0;
    std::uint64_t alarms_raised = 0;
    std::uint64_t alarms_attended = 0;
    std::uint64_t interlock_stops = 0;  ///< local-interlock pump stops
    std::uint64_t nurse_stops = 0;      ///< nurse-attended pump stops
    std::uint64_t rescues = 0;          ///< antagonist administrations
    std::uint64_t deadline_violations = 0;
    /// Simulated time of the earliest deadline violation in any ward
    /// (tick t is t * tick_s); -1 when there is none. Not part of the
    /// outcome metrics; the fingerprint already folds every violation
    /// with its tick.
    double first_deadline_violation_s = -1.0;
    std::uint64_t severe_desat_patients = 0;  ///< min SpO2 < 80

    // Streaming aggregates over patients / messages / alarms.
    sim::RunningStats min_spo2;
    sim::RunningStats drug_mg;
    sim::Histogram spo2_floor_hist{50.0, 100.0, 50};
    sim::Histogram bus_delay_hist{0.0, 30.0, 30};
    sim::Histogram alarm_wait_hist{0.0, 600.0, 60};

    /// Order- and value-exact digest of the run (same contract as
    /// RunArtifacts::fingerprint).
    std::uint64_t fingerprint = 0;

    /// Steady-state engine footprint (lane arrays + per-patient control
    /// state + ward buffers), bytes. A function of the population, not
    /// of the simulated duration — the flat-memory test pins this.
    std::size_t state_bytes = 0;

    // Wall-clock throughput (NOT deterministic; excluded from outcome
    // digests and fingerprints).
    double wall_seconds = 0.0;
    double steps_per_sec = 0.0;

    /// Two-column human-readable table.
    void print(std::ostream& os) const;
};

class HospitalEngine {
public:
    /// \throws HospitalConfigError on an invalid config.
    explicit HospitalEngine(HospitalConfig cfg);

    /// Run the full simulation. Deterministic: identical configs yield
    /// identical reports (modulo the wall-clock fields) for any jobs.
    [[nodiscard]] HospitalReport run() const;

    [[nodiscard]] const HospitalConfig& config() const noexcept {
        return cfg_;
    }

private:
    HospitalConfig cfg_;
};

}  // namespace mcps::hospital
