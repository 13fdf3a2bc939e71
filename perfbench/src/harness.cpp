#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "ref_slice.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {
volatile double g_slice_sink = 0.0;
/// Ops between two slices. Short enough to follow host phases that last
/// a few seconds; the slices then cost about a tenth of the run.
constexpr double kCycleS = 0.25;
}  // namespace

double HostGauge::sample() {
    double sub[3];
    for (double& ms : sub) {
        const Clock::time_point t0 = Clock::now();
        g_slice_sink = g_slice_sink + run_reference_slice(kSliceEvents);
        ms = ms_between(t0, Clock::now());
    }
    std::sort(std::begin(sub), std::end(sub));
    slices_ms_.push_back(sub[1]);
    return sub[1];
}

double HostGauge::factor_of(double slice_ms) {
    return slice_ms / kSliceNominalMs;
}

double HostGauge::median_factor() const {
    if (slices_ms_.empty()) return 1.0;
    return factor_of(median(slices_ms_));
}

void Samples::add(double raw, double norm, int k, bool tr,
                  const OpResult& r) {
    ++attempted;
    raw_ms.push_back(raw);
    norm_ms.push_back(norm);
    kind.push_back(k);
    traced.push_back(tr ? 1 : 0);
    ok.push_back(r.ok ? 1 : 0);
    if (r.ok) {
        patient_s += r.patient_s;
    } else {
        ++failed;
        if (first_error.empty()) first_error = r.error;
    }
}

Samples run_closed_loop(HostGauge& gauge, double seconds, const OpFn& op,
                        const KindFn& kind, SpanRecorder* spans) {
    Samples out;
    std::uint64_t index = 0;
    double before = gauge.sample();
    const Clock::time_point t_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    bool traced = false;
    while (Clock::now() < t_end) {
        struct Pending {
            double raw;
            int kind;
            OpResult result;
        };
        std::vector<Pending> cycle;
        const Clock::time_point c_end =
            std::min(t_end, Clock::now() +
                                std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(kCycleS)));
        SpanRecorder* rec = traced ? spans : nullptr;
        do {
            const Clock::time_point t0 = Clock::now();
            OpResult r = op(index, rec);
            const double raw = ms_between(t0, Clock::now());
            cycle.push_back(Pending{raw, kind(index), std::move(r)});
            ++index;
        } while (Clock::now() < c_end);
        const double after = gauge.sample();
        const double f = HostGauge::factor_of(0.5 * (before + after));
        for (const Pending& p : cycle) {
            out.add(p.raw, p.raw / f, p.kind, rec != nullptr, p.result);
        }
        before = after;
        if (spans) traced = !traced;
    }
    return out;
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i =
        rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
    return v[i];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Tail tail_of(const std::vector<double>& v) {
    Tail t;
    const auto n = static_cast<double>(v.size());
    for (const double pct : {90.0, 99.0, 99.9}) {
        const double beyond = std::floor(n * (1.0 - pct / 100.0) + 1e-9);
        if (beyond >= 10.0) {
            t.pct = pct;
            t.beyond = static_cast<std::uint64_t>(beyond);
        }
    }
    if (t.pct == 50.0) t.beyond = v.size() / 2;
    t.value = quantile(v, t.pct / 100.0);
    return t;
}

double median_busy_s(const Samples& s, bool normalized) {
    const std::vector<double>& lat = normalized ? s.norm_ms : s.raw_ms;
    std::map<int, std::vector<double>> by_kind;
    for (std::size_t i = 0; i < lat.size(); ++i) by_kind[s.kind[i]].push_back(lat[i]);
    double busy_ms = 0.0;
    for (const auto& [k, v] : by_kind) {
        busy_ms += static_cast<double>(v.size()) * median(v);
    }
    return busy_ms / 1000.0;
}

double trace_overhead(const Samples& s) {
    std::map<int, std::pair<std::vector<double>, std::vector<double>>> by;
    for (std::size_t i = 0; i < s.norm_ms.size(); ++i) {
        auto& slot = by[s.kind[i]];
        (s.traced[i] ? slot.first : slot.second).push_back(s.norm_ms[i]);
    }
    double sum = 0.0;
    int n = 0;
    for (const auto& [k, pair] : by) {
        if (pair.first.empty() || pair.second.empty()) continue;
        sum += median(pair.first) / median(pair.second) - 1.0;
        ++n;
    }
    return n ? sum / n : 0.0;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, double raw) {
    metrics_[name] = Entry{value, unit, raw};
}

void Report::note(const std::string& key, const std::string& value) {
    notes_.emplace_back(key, value);
}

void Report::count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
}

void Report::fail(const std::string& why) { errors_.push_back(why); }

void Report::print(const std::vector<std::string>& keep) const {
    for (const auto& [k, v] : notes_) std::printf("# %-28s %s\n", k.c_str(), v.c_str());
    std::printf("# %-34s %16s %16s  %s\n", "metric", "value", "raw", "unit");
    for (const auto& [name, e] : metrics_) {
        if (e.raw >= 0.0) {
            std::printf("# %-34s %16.6g %16.6g  %s\n", name.c_str(), e.value,
                        e.raw, e.unit.c_str());
        } else {
            std::printf("# %-34s %16.6g %16s  %s\n", name.c_str(), e.value,
                        "", e.unit.c_str());
        }
    }
    const double rate = attempted_ ? static_cast<double>(failed_) /
                                         static_cast<double>(attempted_)
                                   : 0.0;
    std::printf("# %-34s %16.6g %16s  %s\n", "error_rate", rate, "",
                "fraction");
    for (const std::string& e : errors_) std::printf("# ERROR %s\n", e.c_str());

    std::string json = "{\"correct\": ";
    json += correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    bool first = true;
    for (const std::string& name : keep) {
        const auto it = metrics_.find(name);
        if (it == metrics_.end()) continue;
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", it->second.value);
        json += first ? "" : ", ";
        json += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
                it->second.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double time_setup(HostGauge& gauge, int reps,
                  const std::function<void()>& setup, double& raw_s,
                  const std::function<void()>& between) {
    std::vector<double> raw, norm;
    for (int i = 0; i < reps; ++i) {
        const double before = gauge.sample();
        const Clock::time_point t0 = Clock::now();
        setup();
        const double s = ms_between(t0, Clock::now()) / 1000.0;
        const double after = gauge.sample();
        raw.push_back(s);
        norm.push_back(s / HostGauge::factor_of(0.5 * (before + after)));
        if (between && i + 1 < reps) between();
    }
    raw_s = median(raw);
    return median(norm);
}

void report_end_to_end(Report& rep, const Samples& s, const Basis& b) {
    rep.count(s.attempted, s.failed);
    if (s.failed) rep.fail("operation check failed: " + s.first_error);
    const std::vector<double>& lat = s.norm_ms;
    const Tail tn = tail_of(lat);
    const Tail tr = tail_of(s.raw_ms);
    std::uint64_t good = 0;
    for (std::size_t i = 0; i < lat.size(); ++i) {
        if (s.ok[i] && lat[i] <= b.limit_ms) ++good;
    }
    rep.metric("patient_s_per_s", s.patient_s / b.seconds_norm, "patient-s/s",
               s.patient_s / b.seconds_raw);
    rep.metric("latency_p50_ms", median(lat), "ms", median(s.raw_ms));
    rep.metric("latency_tail_ms", tn.value, "ms", tr.value);
    rep.metric("goodput_rps", static_cast<double>(good) / b.seconds_norm,
               "req/s", static_cast<double>(good) / b.seconds_raw);
    rep.metric("setup_s", b.setup_norm_s, "s", b.setup_raw_s);
    rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    char buf[128];
    std::snprintf(buf, sizeof buf, "p%g, %zu samples, %llu beyond", tn.pct,
                  lat.size(), static_cast<unsigned long long>(tn.beyond));
    rep.note("latency_tail", buf);
    std::snprintf(buf, sizeof buf, "%g ms", b.limit_ms);
    rep.note("goodput_limit", buf);
    std::map<int, std::vector<double>> by_kind;
    for (std::size_t i = 0; i < lat.size(); ++i) {
        by_kind[s.kind[i]].push_back(lat[i]);
    }
    std::string classes;
    for (const auto& [k, v] : by_kind) {
        std::snprintf(buf, sizeof buf, "%s%d: %.3f ms (n=%zu)",
                      classes.empty() ? "" : ", ", k, median(v), v.size());
        classes += buf;
    }
    rep.note("p50_by_op_class", classes);
}

}  // namespace perfbench
