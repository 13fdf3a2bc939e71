#include "registry.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/pca_interlock.hpp"
#include "sim/parallel.hpp"

namespace mcps::scenario {

namespace {

using mcps::sim::SimDuration;

// ---- knob-value parsing ---------------------------------------------------

[[noreturn]] void bad_value(const ScenarioSpec& spec, std::string_view knob,
                            std::string_view value, std::string_view want) {
    throw SpecError{"spec: scenario '" + spec.name + "': knob '" +
                    std::string{knob} + "': expected " + std::string{want} +
                    ", got '" + std::string{value} + "'"};
}

double number_value(const ScenarioSpec& spec, const KnobInfo& knob,
                    std::string_view value) {
    const std::string s{value};
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || !std::isfinite(v) || v < knob.lo ||
        v > knob.hi) {
        char want[96];
        std::snprintf(want, sizeof want, "a number in [%g, %g]", knob.lo,
                      knob.hi);
        bad_value(spec, knob.name, value, want);
    }
    return v;
}

std::uint64_t count_value(const ScenarioSpec& spec, const KnobInfo& knob,
                          std::string_view value) {
    const std::string s{value};
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end != s.c_str() + s.size() || s.empty() || s[0] == '-' || v == 0 ||
        v > knob.max_count) {
        char want[96];
        std::snprintf(want, sizeof want, "an integer in [1, %llu]",
                      static_cast<unsigned long long>(knob.max_count));
        bad_value(spec, knob.name, value, want);
    }
    return v;
}

/// Millisecond knobs become integer-microsecond SimDurations through a
/// single rounding rule so text specs stay exact.
SimDuration millis_value(const ScenarioSpec& spec, const KnobInfo& knob,
                         std::string_view value) {
    const double ms = number_value(spec, knob, value);
    return SimDuration::micros(static_cast<std::int64_t>(
        std::llround(ms * 1000.0)));
}

physio::Archetype archetype_value(const ScenarioSpec& spec,
                                  const KnobInfo& knob,
                                  std::string_view value) {
    for (physio::Archetype a : physio::all_archetypes()) {
        if (physio::to_string(a) == value) return a;
    }
    bad_value(spec, knob.name, value, "a patient archetype");
}

// ---- knob vocabularies ----------------------------------------------------

std::vector<std::string> archetype_choices() {
    std::vector<std::string> out;
    for (physio::Archetype a : physio::all_archetypes()) {
        out.emplace_back(physio::to_string(a));
    }
    return out;
}

KnobInfo choice(std::string name, std::string description,
                std::vector<std::string> choices) {
    KnobInfo k;
    k.name = std::move(name);
    k.description = std::move(description);
    k.kind = KnobInfo::Kind::kChoice;
    k.choices = std::move(choices);
    return k;
}

KnobInfo number(std::string name, std::string description, double lo,
                double hi) {
    KnobInfo k;
    k.name = std::move(name);
    k.description = std::move(description);
    k.kind = KnobInfo::Kind::kNumber;
    k.lo = lo;
    k.hi = hi;
    k.safe_lo = lo;
    k.safe_hi = hi;
    return k;
}

/// number() with a claimed-safe envelope narrower than the settable
/// domain (TA5 checks the deadline over [safe_lo, safe_hi] only).
KnobInfo number_env(std::string name, std::string description, double lo,
                    double hi, double safe_lo, double safe_hi) {
    KnobInfo k = number(std::move(name), std::move(description), lo, hi);
    k.safe_lo = safe_lo;
    k.safe_hi = safe_hi;
    return k;
}

/// choice() claiming only a subset of the choices safe.
KnobInfo choice_env(std::string name, std::string description,
                    std::vector<std::string> choices,
                    std::vector<std::string> safe) {
    KnobInfo k = choice(std::move(name), std::move(description),
                        std::move(choices));
    k.safe_choices = std::move(safe);
    return k;
}

KnobInfo count(std::string name, std::string description,
               std::uint64_t max_count) {
    KnobInfo k;
    k.name = std::move(name);
    k.description = std::move(description);
    k.kind = KnobInfo::Kind::kCount;
    k.max_count = max_count;
    return k;
}

std::vector<KnobInfo> pca_knobs() {
    return {
        choice("patient", "patient archetype (nominal parameters)",
               archetype_choices()),
        choice("demand", "demand generation mode", {"normal", "proxy"}),
        choice_env("interlock", "safety interlock configuration",
                   {"off", "spo2", "dual"}, {"spo2", "dual"}),
        choice_env("policy", "interlock reaction to stale sensor data",
                   {"fail-safe", "fail-operational"}, {"fail-safe"}),
        choice("monitor", "classic threshold bedside monitor",
               {"on", "off"}),
        choice("smart-alarm", "fused multi-sensor smart alarm",
               {"on", "off"}),
        number("artifact-prob", "oximeter motion-artifact probability",
               0.0, 1.0),
        number("artifact-mag", "oximeter artifact magnitude (SpO2 points)",
               -40.0, 0.0),
        number_env("latency-ms", "network base latency (milliseconds)", 0.0,
                   10000.0, 0.0, 100.0),
        number_env("jitter-ms", "network latency jitter sd (milliseconds)",
                   0.0, 10000.0, 0.0, 10.0),
        number_env("loss", "per-message network loss probability", 0.0, 0.9,
                   0.0, 0.05),
    };
}

std::vector<KnobInfo> hospital_knobs() {
    return {
        count("patients", "concurrent patients in the hospital", 1000000),
        count("wards", "ward count (each: one ICE bus + nurse pool)", 10000),
        count("nurses", "nurses per ward", 1000),
        count("bus-capacity",
              "messages one ward bus services per simulation tick", 100000),
        count("jobs",
              "worker threads (execution only; reports are identical for "
              "any value)",
              sim::kMaxJobs),
        choice("mix", "cohort archetype mix",
               {"typical", "mixed", "high-risk"}),
        choice_env("interlock", "SpO2 pump-stop placement",
                   {"off", "local", "central"}, {"local"}),
        number_env("monitor-period-s",
                   "periodic vitals publish period (seconds)", 0.5, 60.0,
                   0.5, 10.0),
        number_env("deadline-s", "interlock safety deadline (seconds)", 5.0,
                   600.0, 30.0, 600.0),
        number("alarm-threshold", "SpO2 alarm/interlock threshold (percent)",
               80.0, 95.0),
        number("demand-per-hour", "mean PCA presses per patient-hour", 0.0,
               60.0),
        number("bolus-mg", "per-press PCA bolus (mg)", 0.0, 10.0),
        number("storm-fraction",
               "patient fraction hit by the synchronized storm bolus", 0.0,
               1.0),
        number("storm-bolus-mg", "storm bolus size (mg)", 0.0, 10.0),
        number("storm-at-s", "storm injection time (seconds)", 0.0, 36000.0),
    };
}

std::vector<KnobInfo> xray_knobs() {
    return {
        choice("mode", "coordination mode", {"manual", "automated"}),
        count("procedures",
              "imaging procedure count (overrides the minutes mapping)",
              100000),
        number("premature", "manual premature-shot probability", 0.0, 1.0),
        number("distraction", "manual distraction probability", 0.0, 1.0),
        number_env("latency-ms", "network base latency (milliseconds)", 0.0,
                   10000.0, 0.0, 100.0),
        number_env("jitter-ms", "network latency jitter sd (milliseconds)",
                   0.0, 10000.0, 0.0, 10.0),
        number_env("loss", "per-message network loss probability", 0.0, 0.9,
                   0.0, 0.05),
        count("max-retries", "coordination retry budget per procedure", 100),
    };
}

// ---- knob application -----------------------------------------------------

void apply_pca_knob(core::PcaScenarioConfig& cfg, const ScenarioSpec& spec,
                    const KnobInfo& knob, std::string_view value) {
    const std::string_view n = knob.name;
    if (n == "patient") {
        cfg.patient =
            physio::nominal_parameters(archetype_value(spec, knob, value));
    } else if (n == "demand") {
        cfg.demand_mode = value == "proxy" ? core::DemandMode::kProxy
                                           : core::DemandMode::kNormal;
    } else if (n == "interlock") {
        if (value == "off") {
            cfg.interlock = std::nullopt;
        } else {
            if (!cfg.interlock) cfg.interlock = core::InterlockConfig{};
            cfg.interlock->mode = value == "spo2"
                                      ? core::InterlockMode::kSpO2Only
                                      : core::InterlockMode::kDualSensor;
        }
    } else if (n == "policy") {
        if (!cfg.interlock) {
            throw SpecError{"spec: scenario '" + spec.name +
                            "': knob 'policy' requires an interlock (set "
                            "interlock=spo2 or interlock=dual first)"};
        }
        cfg.interlock->data_loss = value == "fail-operational"
                                       ? core::DataLossPolicy::kFailOperational
                                       : core::DataLossPolicy::kFailSafe;
    } else if (n == "monitor") {
        cfg.with_monitor = value == "on";
    } else if (n == "smart-alarm") {
        cfg.with_smart_alarm = value == "on";
    } else if (n == "artifact-prob") {
        cfg.oximeter.artifact_probability = number_value(spec, knob, value);
    } else if (n == "artifact-mag") {
        cfg.oximeter.artifact_magnitude = number_value(spec, knob, value);
    } else if (n == "latency-ms") {
        cfg.channel.base_latency = millis_value(spec, knob, value);
    } else if (n == "jitter-ms") {
        cfg.channel.jitter_sd = millis_value(spec, knob, value);
    } else if (n == "loss") {
        cfg.channel.loss_probability = number_value(spec, knob, value);
    }
}

void apply_xray_knob(core::XrayScenarioConfig& cfg, const ScenarioSpec& spec,
                     const KnobInfo& knob, std::string_view value) {
    const std::string_view n = knob.name;
    if (n == "mode") {
        cfg.mode = value == "manual" ? core::CoordinationMode::kManual
                                     : core::CoordinationMode::kAutomated;
    } else if (n == "procedures") {
        cfg.procedures =
            static_cast<std::size_t>(count_value(spec, knob, value));
    } else if (n == "premature") {
        cfg.manual.premature_shot_probability =
            number_value(spec, knob, value);
    } else if (n == "distraction") {
        cfg.manual.distraction_probability = number_value(spec, knob, value);
    } else if (n == "latency-ms") {
        cfg.channel.base_latency = millis_value(spec, knob, value);
    } else if (n == "jitter-ms") {
        cfg.channel.jitter_sd = millis_value(spec, knob, value);
    } else if (n == "loss") {
        cfg.channel.loss_probability = number_value(spec, knob, value);
    } else if (n == "max-retries") {
        cfg.sync.max_retries =
            static_cast<int>(count_value(spec, knob, value));
    }
}

void apply_hospital_knob(hospital::HospitalConfig& cfg,
                         const ScenarioSpec& spec, const KnobInfo& knob,
                         std::string_view value) {
    const std::string_view n = knob.name;
    if (n == "patients") {
        cfg.patients =
            static_cast<std::size_t>(count_value(spec, knob, value));
    } else if (n == "wards") {
        cfg.wards = static_cast<std::size_t>(count_value(spec, knob, value));
    } else if (n == "nurses") {
        cfg.nurses_per_ward =
            static_cast<std::size_t>(count_value(spec, knob, value));
    } else if (n == "bus-capacity") {
        cfg.bus_capacity_per_tick =
            static_cast<std::size_t>(count_value(spec, knob, value));
    } else if (n == "jobs") {
        cfg.jobs = static_cast<unsigned>(count_value(spec, knob, value));
    } else if (n == "mix") {
        cfg.mix = value == "typical"
                      ? hospital::CohortMix::kTypical
                      : (value == "high-risk" ? hospital::CohortMix::kHighRisk
                                              : hospital::CohortMix::kMixed);
    } else if (n == "interlock") {
        cfg.interlock =
            value == "off"
                ? hospital::InterlockPlacement::kOff
                : (value == "central" ? hospital::InterlockPlacement::kCentral
                                      : hospital::InterlockPlacement::kLocal);
    } else if (n == "monitor-period-s") {
        cfg.monitor_period_s = number_value(spec, knob, value);
    } else if (n == "deadline-s") {
        cfg.interlock_deadline_s = number_value(spec, knob, value);
    } else if (n == "alarm-threshold") {
        cfg.spo2_alarm_threshold = number_value(spec, knob, value);
    } else if (n == "demand-per-hour") {
        cfg.demand_per_hour = number_value(spec, knob, value);
    } else if (n == "bolus-mg") {
        cfg.bolus_mg = number_value(spec, knob, value);
    } else if (n == "storm-fraction") {
        cfg.storm_fraction = number_value(spec, knob, value);
    } else if (n == "storm-bolus-mg") {
        cfg.storm_bolus_mg = number_value(spec, knob, value);
    } else if (n == "storm-at-s") {
        cfg.storm_at_s = number_value(spec, knob, value);
    }
}

/// Choice knobs validate here so apply_* can assume well-formed values.
void check_choice(const ScenarioSpec& spec, const KnobInfo& knob,
                  std::string_view value) {
    if (knob.kind != KnobInfo::Kind::kChoice) return;
    for (const auto& c : knob.choices) {
        if (c == value) return;
    }
    std::string want = "one of";
    for (const auto& c : knob.choices) want += " '" + c + "'";
    bad_value(spec, knob.name, value, want);
}

const ScenarioInfo& checked_info(const ScenarioSpec& spec,
                                 ScenarioFamily family) {
    const ScenarioInfo& info = registry().info(spec.name);
    check_minutes(spec.minutes);  // specs built in code skip the parsers
    if (info.family != family) {
        throw SpecError{"spec: scenario '" + spec.name + "' is " +
                        std::string{to_string(info.family)} + "-family, not " +
                        std::string{to_string(family)}};
    }
    return info;
}

// ---- runners --------------------------------------------------------------

void fill_metrics(const ScenarioSpec& spec, const RunArtifacts& art,
                  mcps::obs::MetricsRegistry* metrics) {
    if (metrics == nullptr) return;
    metrics->counter("scenario/runs").add();
    for (const auto& [k, v] : art.outcome) {
        metrics->gauge("scenario/" + spec.name + "/" + k).set(v);
    }
}

RunArtifacts run_pca_family(const ScenarioSpec& spec, const RunOptions& opts) {
    core::PcaScenarioConfig cfg = make_pca_config(spec);
    cfg.events = opts.events;

    // Run through the live object (not run_pca_scenario) so the run can
    // be fingerprinted without perturbing it: the fold is a read-only
    // pass over the recorder and the run's events after run() returns.
    core::PcaScenario sc{cfg};
    const core::PcaScenarioResult result = sc.run();

    RunArtifacts art;
    art.spec = spec;
    art.fingerprint = sc.fingerprint();
    art.outcome = pca_outcome(result);
    fill_metrics(spec, art, opts.metrics);
    return art;
}

RunArtifacts run_xray_family(const ScenarioSpec& spec,
                             const RunOptions& opts) {
    core::XrayScenarioConfig cfg = make_xray_config(spec);
    cfg.events = opts.events;

    const core::XrayScenarioResult result = core::run_xray_scenario(cfg);

    RunArtifacts art;
    art.spec = spec;
    art.fingerprint = core::fingerprint(result);
    art.outcome = xray_outcome(result);
    fill_metrics(spec, art, opts.metrics);
    return art;
}

RunArtifacts run_hospital_family(const ScenarioSpec& spec,
                                 const RunOptions& opts) {
    const hospital::HospitalConfig cfg = make_hospital_config(spec);
    const hospital::HospitalEngine engine{cfg};
    const hospital::HospitalReport rep = engine.run();

    RunArtifacts art;
    art.spec = spec;
    art.fingerprint = rep.fingerprint;
    art.outcome = hospital_outcome(rep);
    fill_metrics(spec, art, opts.metrics);
    return art;
}

ScenarioRegistry build_registry() {
    ScenarioRegistry reg;

    ScenarioInfo pca;
    pca.name = "pca";
    pca.description =
        "closed-loop PCA: high-risk patient, PCA-by-proxy pressing, "
        "dual-sensor interlock (the golden-trace preset)";
    pca.family = ScenarioFamily::kPca;
    pca.default_minutes = 240;
    pca.knobs = pca_knobs();
    reg.add(std::move(pca), run_pca_family);

    ScenarioInfo open;
    open.name = "pca-open";
    open.description =
        "open-loop PCA baseline: opioid-sensitive patient, proxy "
        "pressing, NO interlock (the hazard E1 quantifies)";
    open.family = ScenarioFamily::kPca;
    open.default_minutes = 240;
    open.knobs = pca_knobs();
    reg.add(std::move(open), run_pca_family);

    ScenarioInfo alarm;
    alarm.name = "smart-alarm";
    alarm.description =
        "alarm-only ward shift: typical adult, normal demand, threshold "
        "monitor + fused smart alarm, ward-grade oximeter artifacts";
    alarm.family = ScenarioFamily::kPca;
    alarm.default_minutes = 480;
    alarm.knobs = pca_knobs();
    reg.add(std::move(alarm), run_pca_family);

    ScenarioInfo xray;
    xray.name = "xray";
    xray.description =
        "x-ray/ventilator sync via the automated ICE coordination app "
        "(one procedure per 3 minutes; the golden-trace preset)";
    xray.family = ScenarioFamily::kXray;
    xray.default_minutes = 60;
    xray.knobs = xray_knobs();
    reg.add(std::move(xray), run_xray_family);

    ScenarioInfo manual;
    manual.name = "xray-manual";
    manual.description =
        "x-ray/ventilator sync through the manual human-operator "
        "baseline (typical sloppiness, experiment E4a)";
    manual.family = ScenarioFamily::kXray;
    manual.default_minutes = 60;
    manual.knobs = xray_knobs();
    reg.add(std::move(manual), run_xray_family);

    ScenarioInfo hosp;
    hosp.name = "hospital";
    hosp.description =
        "hospital-scale population: 2000 concurrent PCA patients in 20 "
        "wards sharing ICE buses and nurse pools, pump-local interlock";
    hosp.family = ScenarioFamily::kHospital;
    hosp.default_minutes = 60;
    hosp.knobs = hospital_knobs();
    reg.add(std::move(hosp), run_hospital_family);

    ScenarioInfo hosp_small;
    hosp_small.name = "hospital-small";
    hosp_small.description =
        "small hospital: 96 patients in 4 wards with a deliberately "
        "narrow bus, for smoke tests and contention experiments";
    hosp_small.family = ScenarioFamily::kHospital;
    hosp_small.default_minutes = 30;
    hosp_small.knobs = hospital_knobs();
    reg.add(std::move(hosp_small), run_hospital_family);

    return reg;
}

}  // namespace

std::string_view to_string(ScenarioFamily f) noexcept {
    switch (f) {
        case ScenarioFamily::kPca: return "pca";
        case ScenarioFamily::kXray: return "xray";
        case ScenarioFamily::kHospital: return "hospital";
    }
    return "?";
}

const KnobInfo* ScenarioInfo::find_knob(std::string_view n) const {
    for (const auto& k : knobs) {
        if (k.name == n) return &k;
    }
    return nullptr;
}

void ScenarioRegistry::add(ScenarioInfo info, Runner runner) {
    if (find(info.name) != nullptr) {
        throw SpecError{"scenario registry: duplicate scenario '" +
                        info.name + "'"};
    }
    entries_.push_back(Entry{std::move(info), std::move(runner)});
}

std::vector<std::string> ScenarioRegistry::names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& e : entries_) out.push_back(e.info.name);
    return out;
}

const ScenarioInfo* ScenarioRegistry::find(std::string_view name) const {
    for (const auto& e : entries_) {
        if (e.info.name == name) return &e.info;
    }
    return nullptr;
}

const ScenarioInfo& ScenarioRegistry::info(std::string_view name) const {
    if (const ScenarioInfo* i = find(name)) return *i;
    std::string msg = "spec: unknown scenario '" + std::string{name} +
                      "' (known:";
    for (const auto& e : entries_) msg += " '" + e.info.name + "'";
    throw SpecError{msg + ")"};
}

RunArtifacts ScenarioRegistry::run(const ScenarioSpec& spec,
                                   const RunOptions& opts) const {
    const ScenarioInfo& meta = info(spec.name);
    for (const auto& [key, value] : spec.overrides) {
        const KnobInfo* knob = meta.find_knob(key);
        if (knob == nullptr) {
            throw SpecError{"spec: scenario '" + spec.name +
                            "' has no knob '" + key + "'"};
        }
        check_choice(spec, *knob, value);
    }
    for (const auto& e : entries_) {
        if (e.info.name == spec.name) return e.runner(spec, opts);
    }
    throw SpecError{"scenario registry: lost entry '" + spec.name + "'"};
}

ScenarioSpec ScenarioRegistry::default_spec(std::string_view name) const {
    ScenarioSpec spec;
    spec.name = info(name).name;
    spec.minutes = info(name).default_minutes;
    return spec;
}

const ScenarioRegistry& registry() {
    static const ScenarioRegistry reg = build_registry();
    return reg;
}

core::PcaScenarioConfig make_pca_config(const ScenarioSpec& spec) {
    const ScenarioInfo& meta = checked_info(spec, ScenarioFamily::kPca);
    const SimDuration duration = SimDuration::minutes(
        static_cast<std::int64_t>(spec.minutes));

    core::PcaScenarioConfig cfg;
    if (spec.name == "pca") {
        cfg = canonical_pca(spec.seed, duration);
    } else if (spec.name == "pca-open") {
        cfg = open_loop_pca(spec.seed, duration);
    } else {
        cfg = smart_alarm_shift(spec.seed, duration);
    }
    for (const auto& [key, value] : spec.overrides) {
        const KnobInfo* knob = meta.find_knob(key);
        if (knob == nullptr) {
            throw SpecError{"spec: scenario '" + spec.name +
                            "' has no knob '" + key + "'"};
        }
        check_choice(spec, *knob, value);
        apply_pca_knob(cfg, spec, *knob, value);
    }
    return cfg;
}

hospital::HospitalConfig make_hospital_config(const ScenarioSpec& spec) {
    const ScenarioInfo& meta = checked_info(spec, ScenarioFamily::kHospital);
    const SimDuration duration =
        SimDuration::minutes(static_cast<std::int64_t>(spec.minutes));

    hospital::HospitalConfig cfg = spec.name == "hospital"
                                       ? canonical_hospital(spec.seed, duration)
                                       : small_hospital(spec.seed, duration);
    for (const auto& [key, value] : spec.overrides) {
        const KnobInfo* knob = meta.find_knob(key);
        if (knob == nullptr) {
            throw SpecError{"spec: scenario '" + spec.name +
                            "' has no knob '" + key + "'"};
        }
        check_choice(spec, *knob, value);
        apply_hospital_knob(cfg, spec, *knob, value);
    }
    // Knob values are individually valid but may be jointly inconsistent
    // (e.g. wards > patients); surface that as a spec error, not an
    // engine crash.
    try {
        cfg.validate();
    } catch (const hospital::HospitalConfigError& e) {
        throw SpecError{"spec: scenario '" + spec.name + "': " + e.what()};
    }
    return cfg;
}

core::XrayScenarioConfig make_xray_config(const ScenarioSpec& spec) {
    const ScenarioInfo& meta = checked_info(spec, ScenarioFamily::kXray);

    core::XrayScenarioConfig cfg = spec.name == "xray"
                                       ? canonical_xray(spec.seed, spec.minutes)
                                       : manual_xray(spec.seed, spec.minutes);
    for (const auto& [key, value] : spec.overrides) {
        const KnobInfo* knob = meta.find_knob(key);
        if (knob == nullptr) {
            throw SpecError{"spec: scenario '" + spec.name +
                            "' has no knob '" + key + "'"};
        }
        check_choice(spec, *knob, value);
        apply_xray_knob(cfg, spec, *knob, value);
    }
    return cfg;
}

}  // namespace mcps::scenario
