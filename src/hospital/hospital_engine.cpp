#include "hospital_engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <ostream>
#include <vector>

#include "physio/patient_batch.hpp"
#include "physio/population.hpp"
#include "sim/hash.hpp"
#include "sim/parallel.hpp"
#include "sim/rng.hpp"

namespace mcps::hospital {

namespace {

using sim::kFnvOffset;

constexpr std::uint64_t mix64(std::uint64_t h, std::uint64_t v) noexcept {
    h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
    return h;
}

/// Fold one (tick, patient, event-code) record into a ward digest.
constexpr std::uint64_t fold_event(std::uint64_t h, std::int64_t tick,
                                   std::size_t patient,
                                   std::uint64_t code) noexcept {
    h = mix64(h, static_cast<std::uint64_t>(tick));
    h = mix64(h, static_cast<std::uint64_t>(patient));
    return mix64(h, code);
}

physio::Archetype archetype_for(CohortMix mix, std::uint64_t seed,
                                std::size_t index) {
    if (mix == CohortMix::kTypical) return physio::Archetype::kTypicalAdult;
    char name[48];
    std::snprintf(name, sizeof name, "hospital.archetype.%llu",
                  static_cast<unsigned long long>(index));
    sim::RngStream rng{seed, name};
    const double u = rng.uniform();
    if (mix == CohortMix::kMixed) {
        if (u < 0.55) return physio::Archetype::kTypicalAdult;
        if (u < 0.70) return physio::Archetype::kOpioidSensitive;
        if (u < 0.80) return physio::Archetype::kOpioidTolerant;
        if (u < 0.92) return physio::Archetype::kElderly;
        return physio::Archetype::kHighRisk;
    }
    // kHighRisk mix: post-op floor heavy on sensitivity and reserve loss.
    if (u < 0.30) return physio::Archetype::kTypicalAdult;
    if (u < 0.55) return physio::Archetype::kOpioidSensitive;
    if (u < 0.60) return physio::Archetype::kOpioidTolerant;
    if (u < 0.80) return physio::Archetype::kElderly;
    return physio::Archetype::kHighRisk;
}

/// One queued ward-bus message (periodic vitals or threshold alert).
struct BusMsg {
    std::size_t patient;
    std::int64_t tick;    ///< enqueue tick
    double reading;       ///< SpO2 percent at capture
};

/// One raised, not-yet-attended alarm.
struct Alarm {
    std::size_t patient;
    std::int64_t tick;
};

/// Per-ward streaming aggregates, merged into the report in ward order.
struct WardResult {
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
    std::uint64_t interlock_stops = 0;
    std::uint64_t nurse_stops = 0;
    std::uint64_t rescues = 0;
    std::uint64_t deadline_violations = 0;
    /// Tick of the ward's first deadline violation; max() when none.
    std::int64_t first_violation_tick =
        std::numeric_limits<std::int64_t>::max();
    std::uint64_t severe_desat_patients = 0;

    sim::RunningStats min_spo2;
    sim::RunningStats drug_mg;
    sim::Histogram spo2_floor_hist{50.0, 100.0, 50};
    sim::Histogram bus_delay_hist{0.0, 30.0, 30};
    sim::Histogram alarm_wait_hist{0.0, 600.0, 60};

    std::uint64_t fp = kFnvOffset;
};

}  // namespace

HospitalEngine::HospitalEngine(HospitalConfig cfg) : cfg_{std::move(cfg)} {
    cfg_.validate();
}

HospitalReport HospitalEngine::run() const {
    const std::size_t n = cfg_.patients;
    const std::size_t wards = cfg_.wards;
    const std::int64_t ticks = cfg_.ticks();
    const double tick_s = cfg_.tick_s;

    const auto monitor_ticks = std::max<std::int64_t>(
        1, std::llround(cfg_.monitor_period_s / tick_s));
    const auto lockout_ticks = std::max<std::int64_t>(
        0, std::llround(cfg_.lockout_s / tick_s));
    const auto service_ticks = std::max<std::int64_t>(
        1, std::llround(cfg_.nurse_service_s / tick_s));
    // validate() keeps storm_at_s inside the run, so the clamp only
    // absorbs rounding to the nearest tick in the run's last tick.
    const std::int64_t storm_tick =
        cfg_.storm_fraction > 0.0
            ? std::clamp<std::int64_t>(std::llround(cfg_.storm_at_s / tick_s),
                                       0, ticks - 1)
            : -1;
    const double p_press = cfg_.demand_per_hour * tick_s / 3600.0;

    // ---- cohort construction (serial; every patient is a pure function
    // of (seed, index), so neither ward count nor jobs can perturb it).
    physio::PatientBatch batch;
    batch.reserve(n);
    std::vector<sim::RngStream> rngs;
    rngs.reserve(n);
    std::vector<std::uint8_t> storm_sel(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const physio::Archetype a = archetype_for(cfg_.mix, cfg_.seed, i);
        batch.add(physio::sample_patient_indexed(a, cfg_.seed, i));
        batch.set_infusion_rate(
            i, physio::InfusionRate::mg_per_hour(cfg_.infusion_mg_per_hour));
        char name[48];
        std::snprintf(name, sizeof name, "hospital.patient.%llu",
                      static_cast<unsigned long long>(i));
        rngs.emplace_back(cfg_.seed, name);
        // Storm membership is the stream's first draw whether or not a
        // storm is configured, so enabling one never shifts later draws.
        storm_sel[i] = rngs.back().bernoulli(cfg_.storm_fraction) ? 1 : 0;
    }

    // ---- per-patient control state (ward-disjoint; threads only touch
    // their own ward's contiguous range).
    std::vector<std::uint8_t> pump_running(n, 1);
    std::vector<std::uint8_t> violated(n, 0);
    std::vector<std::uint8_t> alarm_active(n, 0);
    std::vector<std::int64_t> next_bolus_ok(n, 0);
    std::vector<std::int64_t> below_since(n, -1);
    std::vector<double> last_reading(n, 0.0);
    std::vector<double> min_spo2(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        last_reading[i] = batch.spo2_raw(i);
        min_spo2[i] = batch.spo2_raw(i);
    }

    // Wall clock measures engine throughput only; it never feeds
    // scenario state, outcomes, or fingerprints.
    // mcps-analyze: allow(SIM1): wall-clock perf metric only
    const auto t0 = std::chrono::steady_clock::now();

    // Each ward writes only its own patients' lanes and its own result;
    // the merge below folds the results in ward order.
    const std::vector<WardResult> results =
        sim::parallel_map(wards, cfg_.jobs, [&](std::size_t w) {
        const auto [first, last] = cfg_.ward_range(w);
        WardResult R;
        R.fp = mix64(kFnvOffset, static_cast<std::uint64_t>(w) + 1);

        std::deque<BusMsg> bus;
        std::deque<Alarm> alarms;
        std::vector<std::int64_t> nurse_busy_until(cfg_.nurses_per_ward, 0);

        auto stop_pump = [&](std::size_t i) {
            pump_running[i] = 0;
            batch.set_infusion_rate(i, physio::InfusionRate::zero());
        };
        auto push_msg = [&](std::size_t i, std::int64_t t, double reading) {
            if (bus.size() < cfg_.bus_queue_limit) {
                bus.push_back(BusMsg{i, t, reading});
            } else {
                ++R.bus_dropped;
            }
        };

        for (std::int64_t t = 0; t < ticks; ++t) {
            // A. demand + storm disturbance.
            for (std::size_t i = first; i < last; ++i) {
                if (t == storm_tick && storm_sel[i] != 0) {
                    batch.bolus(i, physio::Dose::mg(cfg_.storm_bolus_mg));
                    ++R.storm_boluses;
                    R.fp = fold_event(R.fp, t, i, 1);
                }
                // One press draw per patient per tick, granted or not,
                // so the stream never depends on pump/lockout state.
                const bool press = rngs[i].bernoulli(p_press);
                if (press && pump_running[i] != 0 && t >= next_bolus_ok[i] &&
                    cfg_.bolus_mg > 0.0) {
                    batch.bolus(i, physio::Dose::mg(cfg_.bolus_mg));
                    next_bolus_ok[i] = t + lockout_ticks;
                    ++R.boluses;
                    R.fp = fold_event(R.fp, t, i, 2);
                }
            }

            // B. physiology: one SoA sweep over the ward's lanes.
            batch.step_range(first, last, tick_s);

            // C. sensing, local interlock, safety-invariant clock.
            for (std::size_t i = first; i < last; ++i) {
                const double s = batch.spo2_raw(i);
                if (s < min_spo2[i]) min_spo2[i] = s;

                const bool publish =
                    (t + static_cast<std::int64_t>(i)) % monitor_ticks == 0;
                if (publish) {
                    last_reading[i] = s;
                    push_msg(i, t, s);
                    ++R.vitals_messages;
                }
                if (s < cfg_.spo2_alarm_threshold) {
                    // Threshold alert: re-sent EVERY tick while below —
                    // the mechanism that turns a mass desaturation into
                    // a bus-flooding alarm storm.
                    push_msg(i, t, s);
                    ++R.alert_messages;
                }

                if (cfg_.interlock == InterlockPlacement::kLocal &&
                    pump_running[i] != 0 &&
                    last_reading[i] < cfg_.spo2_alarm_threshold) {
                    stop_pump(i);
                    ++R.interlock_stops;
                    R.fp = fold_event(R.fp, t, i, 3);
                }

                if (pump_running[i] != 0 && s < cfg_.spo2_alarm_threshold) {
                    if (below_since[i] < 0) {
                        below_since[i] = t;
                    } else if (violated[i] == 0 &&
                               static_cast<double>(t - below_since[i]) *
                                       tick_s >
                                   cfg_.interlock_deadline_s) {
                        violated[i] = 1;
                        R.first_violation_tick =
                            std::min(R.first_violation_tick, t);
                        ++R.deadline_violations;
                        R.fp = fold_event(R.fp, t, i, 4);
                    }
                } else {
                    below_since[i] = -1;
                }
            }

            // D. ward bus service + supervisor alarm raising.
            std::size_t served = 0;
            while (served < cfg_.bus_capacity_per_tick && !bus.empty()) {
                const BusMsg m = bus.front();
                bus.pop_front();
                ++served;
                R.bus_delay_hist.add(static_cast<double>(t - m.tick) *
                                     tick_s);
                if (m.reading < cfg_.spo2_alarm_threshold &&
                    alarm_active[m.patient] == 0) {
                    alarm_active[m.patient] = 1;
                    ++R.alarms_raised;
                    alarms.push_back(Alarm{m.patient, t});
                    R.fp = fold_event(R.fp, t, m.patient, 5);
                }
            }
            if (!bus.empty()) ++R.bus_saturated_ticks;
            R.max_bus_queue = std::max<std::uint64_t>(R.max_bus_queue,
                                                      bus.size());

            // E. nurse pool: free nurses attend alarms FIFO. With the
            // interlock off, nurses observe and chart but have no
            // closed-loop actuation authority (the hazard baseline).
            for (std::size_t nrs = 0; nrs < cfg_.nurses_per_ward; ++nrs) {
                if (nurse_busy_until[nrs] > t || alarms.empty()) continue;
                const Alarm a = alarms.front();
                alarms.pop_front();
                ++R.alarms_attended;
                R.alarm_wait_hist.add(static_cast<double>(t - a.tick) *
                                      tick_s);
                nurse_busy_until[nrs] = t + service_ticks;
                alarm_active[a.patient] = 0;
                if (cfg_.interlock != InterlockPlacement::kOff) {
                    if (pump_running[a.patient] != 0) {
                        stop_pump(a.patient);
                        ++R.nurse_stops;
                        R.fp = fold_event(R.fp, t, a.patient, 6);
                    }
                    if (batch.spo2_raw(a.patient) <
                        cfg_.spo2_alarm_threshold - 5.0) {
                        batch.give_antagonist(a.patient, 8.0, 1800.0);
                        ++R.rescues;
                        R.fp = fold_event(R.fp, t, a.patient, 7);
                    }
                }
            }
        }

        R.patient_steps +=
            static_cast<std::uint64_t>(last - first) *
            static_cast<std::uint64_t>(ticks);
        // Per-patient finals, folded in index order.
        for (std::size_t i = first; i < last; ++i) {
            R.min_spo2.add(min_spo2[i]);
            R.spo2_floor_hist.add(min_spo2[i]);
            const double mg = batch.total_delivered(i).as_mg();
            R.drug_mg.add(mg);
            if (min_spo2[i] < 80.0) ++R.severe_desat_patients;
            R.fp = mix64(R.fp, std::bit_cast<std::uint64_t>(min_spo2[i]));
            R.fp = mix64(R.fp, std::bit_cast<std::uint64_t>(mg));
        }
        return R;
    });

    // mcps-analyze: allow(SIM1): wall-clock perf metric only (see above).
    const auto t1 = std::chrono::steady_clock::now();

    HospitalReport rep;
    rep.seed = cfg_.seed;
    rep.patients = n;
    rep.wards = wards;
    rep.nurses_per_ward = cfg_.nurses_per_ward;
    rep.jobs = cfg_.jobs;
    rep.duration_s = cfg_.duration.to_seconds();
    rep.mix = std::string{to_string(cfg_.mix)};
    rep.interlock = std::string{to_string(cfg_.interlock)};
    rep.ticks = ticks;

    // Canonical reduction: ward order, never execution order.
    std::uint64_t fp = mix64(kFnvOffset, cfg_.seed);
    fp = mix64(fp, n);
    fp = mix64(fp, wards);
    std::int64_t first_violation_tick =
        std::numeric_limits<std::int64_t>::max();
    for (const WardResult& R : results) {
        rep.patient_steps += R.patient_steps;
        rep.boluses += R.boluses;
        rep.storm_boluses += R.storm_boluses;
        rep.vitals_messages += R.vitals_messages;
        rep.alert_messages += R.alert_messages;
        rep.bus_dropped += R.bus_dropped;
        rep.bus_saturated_ticks += R.bus_saturated_ticks;
        rep.max_bus_queue = std::max(rep.max_bus_queue, R.max_bus_queue);
        rep.alarms_raised += R.alarms_raised;
        rep.alarms_attended += R.alarms_attended;
        rep.interlock_stops += R.interlock_stops;
        rep.nurse_stops += R.nurse_stops;
        rep.rescues += R.rescues;
        rep.deadline_violations += R.deadline_violations;
        first_violation_tick =
            std::min(first_violation_tick, R.first_violation_tick);
        rep.severe_desat_patients += R.severe_desat_patients;
        rep.min_spo2.merge(R.min_spo2);
        rep.drug_mg.merge(R.drug_mg);
        rep.spo2_floor_hist.merge(R.spo2_floor_hist);
        rep.bus_delay_hist.merge(R.bus_delay_hist);
        rep.alarm_wait_hist.merge(R.alarm_wait_hist);
        fp = mix64(fp, R.fp);
    }
    rep.fingerprint = fp;
    if (first_violation_tick < ticks) {
        rep.first_deadline_violation_s =
            static_cast<double>(first_violation_tick) * tick_s;
    }

    // Steady-state footprint: a function of the population and ward
    // buffer bounds, NEVER of the simulated duration.
    rep.state_bytes =
        batch.state_bytes() +
        n * (3 * sizeof(std::uint8_t) + 2 * sizeof(std::int64_t) +
             2 * sizeof(double) + sizeof(sim::RngStream)) +
        wards * (cfg_.nurses_per_ward * sizeof(std::int64_t) +
                 cfg_.bus_queue_limit * sizeof(BusMsg)) +
        n * sizeof(Alarm);

    rep.wall_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    rep.steps_per_sec =
        rep.wall_seconds > 0.0
            ? static_cast<double>(rep.patient_steps) / rep.wall_seconds
            : 0.0;
    return rep;
}

void HospitalReport::print(std::ostream& os) const {
    auto row = [&os](const char* key, double v) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "  %-24s %.6g\n", key, v);
        os << buf;
    };
    os << "hospital run: " << patients << " patients / " << wards
       << " wards / " << nurses_per_ward << " nurses-per-ward (mix=" << mix
       << ", interlock=" << interlock << ", jobs=" << jobs << ")\n";
    row("ticks", static_cast<double>(ticks));
    row("patient_steps", static_cast<double>(patient_steps));
    row("boluses", static_cast<double>(boluses));
    row("storm_boluses", static_cast<double>(storm_boluses));
    row("vitals_messages", static_cast<double>(vitals_messages));
    row("alert_messages", static_cast<double>(alert_messages));
    row("bus_dropped", static_cast<double>(bus_dropped));
    row("bus_saturated_ticks", static_cast<double>(bus_saturated_ticks));
    row("max_bus_queue", static_cast<double>(max_bus_queue));
    row("alarms_raised", static_cast<double>(alarms_raised));
    row("alarms_attended", static_cast<double>(alarms_attended));
    if (alarm_wait_hist.total() > 0) {
        row("alarm_wait_p99_s", alarm_wait_hist.percentile(99.0));
    }
    row("interlock_stops", static_cast<double>(interlock_stops));
    row("nurse_stops", static_cast<double>(nurse_stops));
    row("rescues", static_cast<double>(rescues));
    row("deadline_violations", static_cast<double>(deadline_violations));
    row("severe_desat_patients",
        static_cast<double>(severe_desat_patients));
    row("min_spo2_mean", min_spo2.mean());
    row("min_spo2_min", min_spo2.min());
    row("drug_mg_mean", drug_mg.mean());
    row("state_mib", static_cast<double>(state_bytes) / (1024.0 * 1024.0));
    row("wall_seconds", wall_seconds);
    row("steps_per_sec", steps_per_sec);
}

}  // namespace mcps::hospital
