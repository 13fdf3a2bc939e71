// The per-layer ladder of the traced run. Each probe times a public call
// from outside its layer on a benchmark-built input shaped like the
// workload that exercises it, between two slices, and reports the
// host-normalized figure (raw beside it). Identical on every workload.

#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "hospital/hospital_engine.hpp"
#include "net/bus.hpp"
#include "obs/exporters.hpp"
#include "physio/patient_batch.hpp"
#include "physio/population.hpp"
#include "pipeline/cache.hpp"
#include "scenario/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ms = mcps::scenario;
using mcps::sim::SimDuration;
using mcps::sim::SimTime;

volatile double g_sink = 0.0;

/// Runs \p body \p reps times between slices; returns the median of the
/// normalized values it returns (a value in time units is divided by the
/// factor, a rate multiplied: \p is_rate selects). \p raw gets the raw
/// median.
template <typename F>
double probe(HostGauge& gauge, int reps, bool is_rate, double& raw, F&& body) {
    std::vector<double> r, n;
    for (int i = 0; i < reps; ++i) {
        const double before = gauge.sample();
        const double v = body();
        const double f = HostGauge::factor_of(0.5 * (before + gauge.sample()));
        r.push_back(v);
        n.push_back(is_rate ? v * f : v / f);
    }
    raw = median(r);
    return median(n);
}

template <typename F>
double elapsed_ms(F&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    return ms_between(t0, Clock::now());
}

/// pca-shaped kernel load: sparse periodic sensor and pump processes.
double sim_events_per_s() {
    mcps::sim::Simulation sim{7};
    std::uint64_t fired = 0;
    const std::int64_t periods_ms[] = {1000, 1000, 1000, 2000, 5000, 500, 4000};
    for (const std::int64_t p : periods_ms) {
        sim.schedule_periodic(SimDuration::millis(p), [&fired] { ++fired; });
    }
    const double ms = elapsed_ms(
        [&] { sim.run_until(SimTime::at(SimDuration::hours(40))); });
    g_sink = g_sink + static_cast<double>(fired);
    return static_cast<double>(sim.events_dispatched()) / (ms / 1000.0);
}

/// pca fan-out: two sensors publish four vitals at 1 Hz; supervisor,
/// interlock, monitor and recorder subscribe.
double net_deliveries_per_s() {
    mcps::sim::Simulation sim{11};
    mcps::net::Bus bus{sim};
    std::uint64_t seen = 0;
    const auto count = [&seen](const mcps::net::Message&) { ++seen; };
    bus.subscribe("supervisor", "vitals/*", count);
    bus.subscribe("interlock", "vitals/bed1/*", count);
    bus.subscribe("monitor", "vitals/bed1/spo2", count);
    bus.subscribe("recorder", "*", count);
    const char* topics[] = {"vitals/bed1/spo2", "vitals/bed1/heart_rate",
                            "vitals/bed1/etco2", "vitals/bed1/resp_rate"};
    for (int t = 0; t < 4; ++t) {
        const std::string topic = topics[t];
        const std::string sender = t < 2 ? "oxi1" : "capno1";
        sim.schedule_periodic(SimDuration::seconds(1), [&bus, topic, sender] {
            bus.publish(sender, topic,
                        mcps::net::VitalSignPayload{"spo2", 97.0, true});
        });
    }
    const double ms =
        elapsed_ms([&] { sim.run_until(SimTime::at(SimDuration::hours(12))); });
    g_sink = g_sink + static_cast<double>(seen);
    return static_cast<double>(bus.stats().delivered) / (ms / 1000.0);
}

double scalar_steps_per_s() {
    std::uint64_t steps = 0;
    const double ms = elapsed_ms([&] {
        for (const mcps::physio::Archetype a : mcps::physio::all_archetypes()) {
            mcps::physio::Patient p{mcps::physio::nominal_parameters(a)};
            p.set_infusion_rate(mcps::physio::InfusionRate::mg_per_hour(1.0));
            p.bolus(mcps::physio::Dose::mg(2.0));
            for (int i = 0; i < 40000; ++i) p.step(0.5);
            g_sink = g_sink + p.spo2().as_percent();
            steps += 40000;
        }
    });
    return static_cast<double>(steps) / (ms / 1000.0);
}

double batch_lane_steps_per_s(const mcps::physio::PatientBatch& proto) {
    mcps::physio::PatientBatch batch = proto;
    const int steps = 100;
    const double ms = elapsed_ms([&] {
        for (int i = 0; i < steps; ++i) batch.step_all(1.0);
    });
    g_sink = g_sink + batch.spo2_raw(0);
    return static_cast<double>(batch.size()) * steps / (ms / 1000.0);
}

}  // namespace

void run_layers(Context& ctx) {
    HostGauge& g = ctx.gauge;
    Report& rep = ctx.report;
    const std::uint64_t seed = ctx.opt.seed;
    double raw = 0.0;
    const auto put = [&](const std::string& name, double value,
                         const std::string& unit) {
        rep.metric(name, value, unit, raw);
    };

    // sim / net / physio on workload-shaped synthetic inputs.
    put("sim.events_per_s", probe(g, 3, true, raw, sim_events_per_s),
        "events/s");
    put("net.deliveries_per_s", probe(g, 3, true, raw, net_deliveries_per_s),
        "msgs/s");
    put("physio.scalar_steps_per_s",
        probe(g, 3, true, raw, scalar_steps_per_s), "steps/s");
    {
        mcps::physio::PatientBatch proto;
        const auto& arch = mcps::physio::all_archetypes();
        for (std::uint64_t i = 0; i < 2000; ++i) {
            proto.add(mcps::physio::sample_patient_indexed(
                arch[i % arch.size()], seed, i));
            proto.set_infusion_rate(i, mcps::physio::InfusionRate::mg_per_hour(0.5));
        }
        put("physio.batch_lane_steps_per_s",
            probe(g, 3, true, raw, [&] { return batch_lane_steps_per_s(proto); }),
            "steps/s");
    }

    // scenario: every bedside preset end to end, and spec parsing.
    for (const char* preset :
         {"pca", "pca-open", "smart-alarm", "xray", "xray-manual"}) {
        const ms::ScenarioSpec spec = preset_spec(preset, derive_seed(seed, 40, 0));
        put(std::string{"scenario.run_ms."} + preset,
            probe(g, 3, false, raw, [&] {
                return elapsed_ms([&] { (void)ms::registry().run(spec); });
            }),
            "ms");
    }
    {
        std::vector<std::string> texts, jsons;
        for (const char* preset : {"pca", "smart-alarm", "xray", "hospital"}) {
            ms::ScenarioSpec spec = preset_spec(preset, derive_seed(seed, 41, 0));
            texts.push_back(spec.to_text());
            jsons.push_back(spec.to_json());
        }
        put("scenario.spec_parse_us", probe(g, 3, false, raw, [&] {
                constexpr int kIters = 5000;
                const double ms = elapsed_ms([&] {
                    for (int i = 0; i < kIters; ++i) {
                        const std::size_t j = static_cast<std::size_t>(i) % texts.size();
                        g_sink = g_sink + static_cast<double>(
                                              ms::parse_spec(texts[j]).seed +
                                              ms::parse_spec_json(jsons[j]).seed);
                    }
                });
                return ms * 1000.0 / kIters;
            }),
            "us");
    }

    // obs: one pca run's event stream, exported and read back.
    {
        const ms::ScenarioSpec spec = preset_spec("pca", derive_seed(seed, 42, 0));
        mcps::obs::EventLog log;
        ms::RunOptions on;
        on.events = &log;
        (void)ms::registry().run(spec, on);
        std::string jsonl, chrome;
        {
            std::ostringstream a, b;
            mcps::obs::write_jsonl(log, a);
            mcps::obs::write_chrome_trace(log, b);
            jsonl = a.str();
            chrome = b.str();
        }
        rep.metric("obs.events_per_run", static_cast<double>(log.size()), "events");
        rep.metric("obs.jsonl_bytes_per_run", static_cast<double>(jsonl.size()),
                   "bytes");
        const double mb = static_cast<double>(jsonl.size() + chrome.size()) / 1e6;
        put("obs.export_mb_per_s", probe(g, 3, true, raw, [&] {
                const double ms = elapsed_ms([&] {
                    std::ostringstream a, b;
                    mcps::obs::write_jsonl(log, a);
                    mcps::obs::write_chrome_trace(log, b);
                    g_sink = g_sink + static_cast<double>(a.tellp() + b.tellp());
                });
                return mb / (ms / 1000.0);
            }),
            "MB/s");
        put("obs.read_jsonl_mb_per_s", probe(g, 3, true, raw, [&] {
                const double ms = elapsed_ms([&] {
                    std::istringstream in{jsonl};
                    g_sink = g_sink + static_cast<double>(
                                          mcps::obs::read_jsonl(in).size());
                });
                return static_cast<double>(jsonl.size()) / 1e6 / (ms / 1000.0);
            }),
            "MB/s");
        // Host factors cancel in a ratio of two times taken back to back.
        std::vector<double> ratios;
        for (int i = 0; i < 3; ++i) {
            const double off = elapsed_ms([&] { (void)ms::registry().run(spec); });
            const double with = elapsed_ms([&] {
                mcps::obs::EventLog l;
                ms::RunOptions o;
                o.events = &l;
                (void)ms::registry().run(spec, o);
            });
            ratios.push_back(with / off - 1.0);
        }
        rep.metric("obs.events_on_overhead", median(ratios), "fraction");
    }

    // pipeline: the forensic graph, cold then warm against one cache.
    {
        const ms::ScenarioSpec pca = forensic_spec(seed, 0, 0);
        const ms::ScenarioSpec xray = forensic_spec(seed, 1, 0);
        double hits = 0.0, lookups = 0.0;
        put("pipeline.cold_ms", probe(g, 3, false, raw, [&] {
                return elapsed_ms([&] { (void)forensic_graph(pca, xray).run(); });
            }),
            "ms");
        mcps::pipeline::ArtifactCache cache;
        mcps::pipeline::PipelineOptions opts;
        opts.cache = &cache;
        (void)forensic_graph(pca, xray).run(opts);
        put("pipeline.warm_ms", probe(g, 3, false, raw, [&] {
                mcps::pipeline::PipelineResult r;
                const double ms =
                    elapsed_ms([&] { r = forensic_graph(pca, xray).run(opts); });
                hits += static_cast<double>(r.cache_hits);
                lookups += static_cast<double>(r.cache_hits + r.cache_misses);
                return ms;
            }),
            "ms");
        rep.metric("pipeline.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
                   "fraction");
    }

    // hospital / ward: the hospital workload's engine at jobs 2 and 1.
    {
        const mcps::hospital::HospitalEngine j2{hospital_config(seed, 0, 2)};
        const mcps::hospital::HospitalEngine j1{hospital_config(seed, 0, 1)};
        mcps::hospital::HospitalReport last;
        double t2 = 0.0;
        put("hospital.steps_per_s", probe(g, 3, true, raw, [&] {
                const double ms = elapsed_ms([&] { last = j2.run(); });
                t2 += ms;
                return static_cast<double>(last.patient_steps) / (ms / 1000.0);
            }),
            "steps/s");
        rep.metric("hospital.state_mb",
                   static_cast<double>(last.state_bytes) / (1024.0 * 1024.0), "MiB");
        double t1 = 0.0;
        for (int i = 0; i < 3; ++i) t1 += elapsed_ms([&] { (void)j1.run(); });
        rep.metric("ward.parallel_eff", t1 / t2 / 2.0, "fraction");
    }

    // serve: Client::run round trips, then a short open-loop phase.
    {
        ServeBench bench{seed};
        for (const std::string& f : bench.start()) rep.fail(f);
        double hit_us = 0.0, miss_ms = 0.0;
        bench.client_probe(g, hit_us, miss_ms);
        rep.metric("serve.hit_us", hit_us, "us");
        rep.metric("serve.miss_ms", miss_ms, "ms");
        const ServeStats st = bench.measure(g, 2.0, nullptr);
        rep.count(st.samples.attempted, st.samples.failed);
        if (st.samples.failed) rep.fail("serve probe: " + st.samples.first_error);
        const double lookups = static_cast<double>(st.cache_hits + st.cache_misses);
        rep.metric("serve.cache_hit_ratio",
                   lookups > 0 ? static_cast<double>(st.cache_hits) / lookups : 0.0,
                   "fraction");
        const auto mean = [](const std::vector<double>& v) {
            double s = 0.0;
            for (const double x : v) s += x;
            return v.empty() ? 0.0 : s / static_cast<double>(v.size());
        };
        rep.metric("serve.queue_ms", mean(st.queue_ms), "ms");
        rep.metric("serve.run_ms", mean(st.run_ms), "ms");
        rep.metric("serve.generator_late_ms", quantile(st.late_ms, 0.99), "ms");
    }

    rep.metric("host.factor", g.median_factor(), "ratio");
}

}  // namespace perfbench
