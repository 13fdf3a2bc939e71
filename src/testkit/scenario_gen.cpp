#include "scenario_gen.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>

#include "scenario/registry.hpp"

namespace mcps::testkit {

using mcps::sim::RngStream;
using mcps::sim::SimDuration;

std::string_view to_string(WorkloadKind k) noexcept {
    switch (k) {
        case WorkloadKind::kPca: return "pca";
        case WorkloadKind::kXray: return "xray";
        case WorkloadKind::kHospital: return "hospital";
    }
    return "unknown";
}

bool fault_intensity_in_domain(double intensity) noexcept {
    // NaN fails both comparisons, and the bounds exclude the infinities.
    return intensity >= 0.0 && intensity <= kMaxFaultIntensity;
}

ScenarioGenerator::ScenarioGenerator(std::uint64_t master_seed,
                                     double fault_intensity)
    : seed_{master_seed}, fault_intensity_{fault_intensity} {
    if (!fault_intensity_in_domain(fault_intensity)) {
        char msg[96];
        std::snprintf(msg, sizeof msg,
                      "fault intensity %g is outside [0, %g]",
                      fault_intensity, kMaxFaultIntensity);
        throw std::invalid_argument{msg};
    }
}

WorkloadKind ScenarioGenerator::kind_of(std::uint64_t index,
                                        double xray_fraction) const {
    RngStream rng{seed_, "fuzz/kind/" + std::to_string(index)};
    return rng.bernoulli(xray_fraction) ? WorkloadKind::kXray
                                        : WorkloadKind::kPca;
}

namespace {

SimDuration uniform_duration(RngStream& rng, SimDuration lo, SimDuration hi) {
    return SimDuration::micros(rng.uniform_int(lo.ticks(), hi.ticks()));
}

std::string fmt_double(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return buf;
}

/// Sample a knob uniformly from its claimed-safe envelope.
double safe_number(RngStream& rng, const scenario::ScenarioInfo& info,
                   const char* knob) {
    const scenario::KnobInfo* k = info.find_knob(knob);
    if (k == nullptr) {
        throw std::logic_error{std::string{"hospital fuzz: registry lost "
                                           "knob '"} +
                               knob + "'"};
    }
    return rng.uniform(k->safe_lo, k->safe_hi);
}

}  // namespace

FaultPlan ScenarioGenerator::sample_faults(RngStream& rng,
                                           SimDuration horizon) const {
    using namespace mcps::sim::literals;
    FaultPlan plan;
    const auto n = static_cast<std::size_t>(
        fault_intensity_ * static_cast<double>(rng.uniform_int(0, 6)) + 0.5);

    // Faults that deny or distort the data/command path delay the
    // interlock's reaction. Their combined duration is capped so that the
    // claimed-safe envelope stays provable: worst-case reaction is
    // persistence + staleness + sensor averaging + this budget + retry
    // slack, which the invariant deadline (180 s) dominates with margin.
    SimDuration denial_budget = 90_s;

    static constexpr FaultKind kinds[] = {
        FaultKind::kOutage,      FaultKind::kPartition,
        FaultKind::kLossBurst,   FaultKind::kDelaySpike,
        FaultKind::kDupBurst,    FaultKind::kReorderBurst,
        FaultKind::kCorruptBurst, FaultKind::kOxiDropout,
        FaultKind::kCapDropout,  FaultKind::kPumpCmdLoss,
    };
    static constexpr std::string_view net_targets[] = {"pca_interlock", "pump1",
                                                       "supervisor1"};

    for (std::size_t i = 0; i < n; ++i) {
        FaultEvent e;
        e.kind = kinds[rng.pick(std::size(kinds))];
        e.at = uniform_duration(rng, 60_s, horizon - 180_s);
        bool counts_against_budget = true;
        switch (e.kind) {
            case FaultKind::kOutage:
                e.duration = uniform_duration(rng, 5_s, 25_s);
                e.target = net_targets[rng.pick(std::size(net_targets))];
                break;
            case FaultKind::kPartition:
                e.duration = uniform_duration(rng, 3_s, 12_s);
                break;
            case FaultKind::kLossBurst:
                e.duration = uniform_duration(rng, 10_s, 40_s);
                e.target = net_targets[rng.pick(std::size(net_targets))];
                e.magnitude = rng.uniform(0.3, 0.9);
                break;
            case FaultKind::kDelaySpike:
                e.duration = uniform_duration(rng, 10_s, 40_s);
                e.target = net_targets[rng.pick(std::size(net_targets))];
                e.magnitude = rng.uniform(200.0, 3000.0);  // extra ms
                break;
            case FaultKind::kDupBurst:
                e.duration = uniform_duration(rng, 10_s, 60_s);
                e.target = net_targets[rng.pick(2)];
                e.magnitude = rng.uniform(0.2, 0.8);
                counts_against_budget = false;
                break;
            case FaultKind::kReorderBurst:
                e.duration = uniform_duration(rng, 10_s, 60_s);
                e.target = net_targets[rng.pick(2)];
                e.magnitude = rng.uniform(0.3, 0.9);
                counts_against_budget = false;
                break;
            case FaultKind::kCorruptBurst:
                e.duration = uniform_duration(rng, 5_s, 30_s);
                e.target = "pca_interlock";
                e.magnitude = rng.uniform(0.05, 0.5);
                break;
            case FaultKind::kOxiDropout:
                // Sensor silence triggers the fail-safe path (a stop), so
                // long dropouts don't extend the interlock's reaction time
                // and stay outside the denial budget.
                e.duration = uniform_duration(rng, 20_s, 120_s);
                counts_against_budget = false;
                break;
            case FaultKind::kCapDropout:
                e.duration = uniform_duration(rng, 20_s, 120_s);
                counts_against_budget = false;
                break;
            case FaultKind::kPumpCmdLoss:
                e.duration = uniform_duration(rng, 5_s, 20_s);
                break;
        }
        if (counts_against_budget) {
            if (e.duration > denial_budget) continue;  // over budget: skip
            denial_budget -= e.duration;
        }
        plan.events.push_back(std::move(e));
    }
    return plan;
}

GeneratedPca ScenarioGenerator::pca(std::uint64_t index) const {
    using namespace mcps::sim::literals;
    RngStream rng{seed_, "fuzz/pca/" + std::to_string(index)};

    GeneratedPca g;
    auto& c = g.config;
    c.seed = rng.next();
    c.duration = uniform_duration(rng, 45_min, 90_min);

    const auto& archetypes = physio::all_archetypes();
    const auto arch = archetypes[rng.pick(archetypes.size())];
    c.patient = physio::sample_patient(arch, rng);

    c.demand_mode =
        rng.bernoulli(0.5) ? core::DemandMode::kProxy : core::DemandMode::kNormal;
    c.demand.baseline_pain = rng.uniform(5.0, 8.0);
    c.demand.proxy_rate_per_hour = rng.uniform(6.0, 14.0);

    c.prescription.basal =
        physio::InfusionRate::mg_per_hour(rng.uniform(0.2, 1.5));
    c.prescription.bolus_dose = physio::Dose::mg(rng.uniform(0.3, 1.0));
    c.prescription.lockout = uniform_duration(rng, 5_min, 10_min);
    c.prescription.max_hourly = physio::Dose::mg(rng.uniform(4.0, 8.0));

    core::InterlockConfig il;
    il.mode = rng.bernoulli(0.5) ? core::InterlockMode::kDualSensor
                                 : core::InterlockMode::kSpO2Only;
    il.data_loss = core::DataLossPolicy::kFailSafe;  // the claimed-safe envelope
    il.spo2_stop = rng.uniform(88.0, 91.0);
    il.spo2_warn = il.spo2_stop + rng.uniform(2.0, 3.0);
    il.persistence = uniform_duration(rng, 5_s, 15_s);
    il.staleness_limit = uniform_duration(rng, 8_s, 15_s);
    il.command_retry = uniform_duration(rng, 1_s, 3_s);
    il.auto_resume = rng.bernoulli(0.7);
    il.recovery_hold = uniform_duration(rng, 2_min, 5_min);
    c.interlock = il;

    c.channel.base_latency = uniform_duration(rng, 1_ms, 40_ms);
    c.channel.jitter_sd = uniform_duration(rng, 0_ms, 8_ms);
    c.channel.loss_probability = rng.uniform(0.0, 0.05);
    c.channel.duplicate_probability = rng.uniform(0.0, 0.02);
    c.channel.reorder_probability = rng.uniform(0.0, 0.05);

    c.oximeter.spo2_noise_sd = rng.uniform(0.3, 1.0);
    c.oximeter.artifact_probability = rng.uniform(0.0, 0.004);
    c.oximeter.dropout_probability = rng.uniform(0.0, 0.001);
    c.oximeter.dropout_duration = uniform_duration(rng, 10_s, 30_s);
    c.capnometer.etco2_noise_sd = rng.uniform(0.5, 1.5);
    c.capnometer.dropout_probability = rng.uniform(0.0, 0.001);
    c.capnometer.dropout_duration = uniform_duration(rng, 10_s, 40_s);

    c.with_monitor = rng.bernoulli(0.3);
    c.with_smart_alarm = rng.bernoulli(0.5);

    g.faults = sample_faults(rng, c.duration);
    return g;
}

GeneratedPca ScenarioGenerator::weakened_pca(std::uint64_t index) const {
    using namespace mcps::sim::literals;
    RngStream rng{seed_, "fuzz/weak/" + std::to_string(index)};

    GeneratedPca g;
    auto& c = g.config;
    c.seed = rng.next();
    c.duration = 2_h;

    const auto arch = rng.bernoulli(0.5) ? physio::Archetype::kHighRisk
                                         : physio::Archetype::kOpioidSensitive;
    c.patient = physio::sample_patient(arch, rng);

    // PCA-by-proxy on an aggressive regimen: the exact hazard chain the
    // paper's interlock exists to break.
    c.demand_mode = core::DemandMode::kProxy;
    c.demand.proxy_rate_per_hour = rng.uniform(12.0, 18.0);
    c.prescription.basal =
        physio::InfusionRate::mg_per_hour(rng.uniform(2.0, 3.0));
    c.prescription.bolus_dose = physio::Dose::mg(rng.uniform(1.0, 1.5));
    c.prescription.lockout = 6_min;
    c.prescription.max_hourly = physio::Dose::mg(rng.uniform(14.0, 16.0));

    // The weakened interlock: single sensor, fail-operational, thresholds
    // far below the clinical band, glacial persistence and retry. It
    // "works" in the sense of eventually reacting, but far outside the
    // safety deadline — exactly what the invariants must flag.
    core::InterlockConfig il;
    il.mode = core::InterlockMode::kSpO2Only;
    il.data_loss = core::DataLossPolicy::kFailOperational;
    il.spo2_stop = 72.0;
    il.spo2_warn = 74.0;
    il.persistence = 240_s;
    il.staleness_limit = 600_s;
    il.command_retry = 30_s;
    il.auto_resume = false;
    c.interlock = il;

    g.faults = sample_faults(rng, c.duration);
    return g;
}

GeneratedXray ScenarioGenerator::xray(std::uint64_t index) const {
    using namespace mcps::sim::literals;
    RngStream rng{seed_, "fuzz/xray/" + std::to_string(index)};

    GeneratedXray g;
    auto& c = g.config;
    c.seed = rng.next();
    c.mode = rng.bernoulli(0.3) ? core::CoordinationMode::kManual
                                : core::CoordinationMode::kAutomated;
    c.procedures = static_cast<std::size_t>(rng.uniform_int(5, 15));
    c.procedure_gap = uniform_duration(rng, 1_min, 3_min);

    const auto arch = rng.bernoulli(0.5) ? physio::Archetype::kTypicalAdult
                                         : physio::Archetype::kElderly;
    c.patient = physio::sample_patient(arch, rng);

    c.ventilator.max_pause = uniform_duration(rng, 20_s, 30_s);

    // The x-ray harness takes no live fault plan, so network stress is
    // expressed through (heavier than PCA) static channel parameters.
    c.channel.base_latency = uniform_duration(rng, 1_ms, 80_ms);
    c.channel.jitter_sd = uniform_duration(rng, 0_ms, 15_ms);
    c.channel.loss_probability = rng.uniform(0.0, 0.2);
    c.channel.duplicate_probability = rng.uniform(0.0, 0.05);
    c.channel.reorder_probability = rng.uniform(0.0, 0.1);
    return g;
}

scenario::ScenarioSpec ScenarioGenerator::hospital(std::uint64_t index,
                                                   bool hazard) const {
    const scenario::ScenarioInfo& info =
        scenario::registry().info("hospital-small");
    RngStream rng{seed_, "fuzz.hospital." + std::to_string(index)};

    scenario::ScenarioSpec spec = scenario::registry().default_spec(info.name);
    spec.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1000000));

    const std::int64_t patients =
        hazard ? rng.uniform_int(16, 48) : rng.uniform_int(8, 96);
    const std::int64_t max_wards = patients < 4 ? patients : 4;
    spec.minutes = static_cast<std::uint64_t>(
        hazard ? rng.uniform_int(6, 8) : rng.uniform_int(2, 5));
    spec.set("patients", std::to_string(patients));
    spec.set("wards", std::to_string(rng.uniform_int(1, max_wards)));
    spec.set("nurses", std::to_string(rng.uniform_int(1, 4)));
    spec.set("bus-capacity", std::to_string(rng.uniform_int(4, 64)));
    const char* jobs_choices[] = {"1", "2", "4"};
    spec.set("jobs", jobs_choices[rng.uniform_int(0, 2)]);
    const char* mixes[] = {"typical", "mixed", "high-risk"};
    spec.set("mix", mixes[rng.uniform_int(0, 2)]);
    spec.set("monitor-period-s",
             fmt_double(safe_number(rng, info, "monitor-period-s")));
    spec.set("alarm-threshold", fmt_double(rng.uniform(80.0, 95.0)));

    if (hazard) {
        // Tightest claimed-safe deadline: with deadlines near the 600 s
        // envelope top a 6-8 minute run cannot violate by construction,
        // which would make the expected-hazard check vacuous.
        spec.set("deadline-s",
                 fmt_double(info.find_knob("deadline-s")->safe_lo));
        spec.set("interlock", "off");
        spec.set("demand-per-hour", fmt_double(rng.uniform(0.0, 20.0)));
        spec.set("bolus-mg", fmt_double(rng.uniform(0.5, 2.0)));
        spec.set("storm-fraction", fmt_double(rng.uniform(0.6, 1.0)));
        spec.set("storm-bolus-mg", fmt_double(rng.uniform(6.0, 10.0)));
        spec.set("storm-at-s", fmt_double(rng.uniform(30.0, 120.0)));
    } else {
        spec.set("deadline-s",
                 fmt_double(safe_number(rng, info, "deadline-s")));
        spec.set("interlock", "local");
        spec.set("demand-per-hour", fmt_double(rng.uniform(0.0, 60.0)));
        spec.set("bolus-mg", fmt_double(rng.uniform(0.0, 10.0)));
        if (rng.bernoulli(0.5)) {
            spec.set("storm-fraction", fmt_double(rng.uniform(0.0, 1.0)));
            spec.set("storm-bolus-mg", fmt_double(rng.uniform(0.0, 10.0)));
            spec.set("storm-at-s",
                     fmt_double(rng.uniform(
                         0.0, static_cast<double>(spec.minutes) * 60.0)));
        }
    }
    return spec;
}

}  // namespace mcps::testkit
