// serve: an embedded serve::Server (2 workers) on loopback, driven by one
// generator thread in an open loop at a fixed offered rate over two
// connections. Most requests name a bounded seed pool and hit the
// ResultCache; the rest miss and run short single-patient specs, and a
// small fixed share are hospital-small runs. Every response's artifact
// bytes must equal a direct registry run of the same spec.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "scenario/registry.hpp"
#include "serve/serve.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ms = mcps::scenario;
namespace sv = mcps::serve;

constexpr const char* kPresets[] = {"pca", "pca-open", "smart-alarm", "xray",
                                    "xray-manual"};
/// Offered load: well under the all-miss capacity, and below 500 so a
/// 20 s run stays under the 10000 samples at which the tail would move
/// from p99 to p99.9.
constexpr double kRatePerS = 400.0;
constexpr double kCycleS = 0.5;       ///< load window between slices
constexpr std::size_t kHitPool = 32;  ///< distinct cached specs
constexpr unsigned kConnections = 2;
constexpr unsigned kWorkers = 2;
constexpr std::size_t kCacheEntries = 128;
constexpr std::uint64_t kHitMinutes = 2;
constexpr std::uint64_t kMissMinutes = 3;
constexpr std::uint64_t kHospitalSmallMinutes = 10;
constexpr double kLimitMs = 50.0;  ///< goodput limit

struct Generated {
    ms::ScenarioSpec spec;
    int kind = 0;  ///< 0 hit, 1 miss, 2 hospital-small
    std::size_t pool = 0;
    sv::QosClass qos = sv::QosClass::kInteractive;
};

}  // namespace

struct ServeBench::Impl {
    std::uint64_t seed;
    std::vector<ms::ScenarioSpec> pool;
    std::vector<std::string> pool_bytes;  ///< direct-run artifacts
    std::unique_ptr<sv::Server> server;
    /// Misses seen during measure(): spec and the bytes served.
    std::vector<std::pair<ms::ScenarioSpec, std::string>> misses;

    /// Request \p i. The class follows a fixed pattern in every block of
    /// 100 (2 hospital-small, 3 other misses, 95 hits), so every run has
    /// the same mix; the seed picks the specs and QoS classes. p50 then
    /// falls among hits and p99 in the middle of the hospital-small class.
    Generated generate(std::uint64_t i) const {
        Generated g;
        const std::uint64_t k = i % 100;
        const std::uint64_t q = derive_seed(seed, 35, i) % 10;
        g.qos = q == 0 ? sv::QosClass::kClinical
                       : (q <= 6 ? sv::QosClass::kInteractive
                                 : sv::QosClass::kBatch);
        if (k % 50 == 0) {
            g.kind = 2;
            g.spec = preset_spec("hospital-small", derive_seed(seed, 31, i),
                                 kHospitalSmallMinutes);
        } else if (k % 33 == 16) {
            g.kind = 1;
            g.spec = preset_spec(kPresets[derive_seed(seed, 32, i) % 5],
                                 derive_seed(seed, 33, i), kMissMinutes);
        } else {
            g.pool = derive_seed(seed, 34, i) % pool.size();
            g.spec = pool[g.pool];
        }
        return g;
    }
};

ServeBench::ServeBench(std::uint64_t seed) : impl_{std::make_unique<Impl>()} {
    impl_->seed = seed;
    for (std::size_t j = 0; j < kHitPool; ++j) {
        impl_->pool.push_back(preset_spec(kPresets[j % 5],
                                          derive_seed(seed, 36, j),
                                          kHitMinutes));
        impl_->pool_bytes.push_back(
            sv::artifacts_json_line(ms::registry().run(impl_->pool.back())));
    }
}

ServeBench::~ServeBench() { stop(); }

std::vector<std::string> ServeBench::start() {
    std::vector<std::string> failures;
    sv::ServerConfig cfg;
    cfg.endpoint = sv::Endpoint::tcp("127.0.0.1", 0);
    cfg.workers = kWorkers;
    cfg.cache_entries = kCacheEntries;
    impl_->server = std::make_unique<sv::Server>(cfg);
    sv::Client client{impl_->server->endpoint()};
    for (std::size_t j = 0; j < impl_->pool.size(); ++j) {
        const sv::Response r = client.run(impl_->pool[j]);
        if (!r.ok() || r.artifacts != impl_->pool_bytes[j]) {
            failures.push_back("warm-up response differs from a direct run: " +
                               impl_->pool[j].to_text());
        }
    }
    return failures;
}

void ServeBench::stop() {
    if (!impl_->server) return;
    impl_->server->request_drain();
    impl_->server->wait();
    impl_->server.reset();
}

namespace {

/// One connection of the generator: a socket plus its partial input.
struct Conn {
    sv::Fd fd;
    std::string buf;
};

}  // namespace

ServeStats ServeBench::measure(HostGauge& gauge, double seconds,
                               SpanRecorder* spans) {
    // Microsecond timer slack, so the generator wakes when a send is due.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    ServeStats st;
    std::vector<Conn> conns(kConnections);
    for (Conn& c : conns) {
        c.fd = sv::connect_to(impl_->server->endpoint());
        // With several requests in flight per connection, Nagle would hold
        // each request behind the ACK of the one before (the server ACKs a
        // miss late), adding a hidden send delay the lateness figure
        // cannot see. An open-loop generator sends every request when due.
        const int one = 1;
        setsockopt(c.fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }

    struct InFlight {
        Generated g;
        Clock::time_point due;
        bool done = false;
        double raw_ms = 0.0;
        OpResult result;
    };
    std::uint64_t next = 0;
    double before = gauge.sample();
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kRatePerS));
    double offered_s = 0.0;
    bool traced = false;
    while (offered_s < seconds - 1e-9) {
        // Traced and untraced cycles alternate, as in run_closed_loop.
        SpanRecorder* rec = traced ? spans : nullptr;
        traced = spans != nullptr && !traced;
        const double window = std::min(kCycleS, seconds - offered_s);
        const auto count = static_cast<std::uint64_t>(window * kRatePerS);
        const std::uint64_t base = next;
        std::vector<InFlight> fl(count);
        std::uint64_t sent = 0, received = 0;
        // The next request line is built while waiting for its due time.
        const auto prepare = [&](std::uint64_t k) {
            fl[k].g = impl_->generate(base + k);
            sv::Request req;
            req.id = std::to_string(base + k);
            req.id.insert(req.id.begin(), 'r');
            req.spec = fl[k].g.spec;
            req.qos = fl[k].g.qos;
            return req.to_line();
        };
        std::string line = prepare(0);
        const Clock::time_point t0 = Clock::now();
        Clock::time_point last = t0;
        for (std::uint64_t k = 0; k < count; ++k) fl[k].due = t0 + period * k;
        const Clock::time_point give_up =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(window + 20.0));
        while (received < count) {
            Clock::time_point now = Clock::now();
            if (now > give_up) throw std::runtime_error("serve: responses timed out");
            if (sent < count && now >= fl[sent].due) {
                {
                    SpanScope span{rec, "serve.send", base + sent};
                    if (!sv::write_line(conns[sent % kConnections].fd.get(), line)) {
                        throw std::runtime_error("serve: write failed");
                    }
                }
                st.late_ms.push_back(ms_between(fl[sent].due, Clock::now()));
                if (++sent < count) line = prepare(sent);
                continue;
            }
            // Sleep until the next due time or a response. (Busy-polling,
            // always or for a while after each send, measured less steady:
            // it takes a core the server's threads use.)
            pollfd pfd[kConnections];
            for (unsigned c = 0; c < kConnections; ++c) {
                pfd[c] = pollfd{conns[c].fd.get(), POLLIN, 0};
            }
            const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
                sent < count ? fl[sent].due - now : std::chrono::milliseconds(100));
            const timespec ts{static_cast<time_t>(wait.count() / 1000000000),
                              static_cast<long>(wait.count() % 1000000000)};
            if (ppoll(pfd, kConnections, &ts, nullptr) <= 0) continue;
            for (unsigned c = 0; c < kConnections; ++c) {
                if (!(pfd[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
                char chunk[65536];
                const ssize_t n = recv(pfd[c].fd, chunk, sizeof chunk, 0);
                if (n <= 0) throw std::runtime_error("serve: connection lost");
                // ACK at once (Linux resets this after each read); see README.
                const int one = 1;
                setsockopt(pfd[c].fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
                const Clock::time_point got = Clock::now();
                last = got;
                Conn& conn = conns[c];
                conn.buf.append(chunk, static_cast<std::size_t>(n));
                std::size_t nl;
                while ((nl = conn.buf.find('\n')) != std::string::npos) {
                    const std::string resp_line = conn.buf.substr(0, nl);
                    conn.buf.erase(0, nl + 1);
                    sv::Response r;
                    {
                        SpanScope span{rec, "serve.parse_response", 0};
                        r = sv::parse_response(resp_line);
                    }
                    const std::uint64_t id = std::stoull(r.id.substr(1));
                    if (id < base || id >= base + count || fl[id - base].done) {
                        throw std::runtime_error("serve: unexpected response id " + r.id);
                    }
                    InFlight& f = fl[id - base];
                    f.done = true;
                    ++received;
                    f.raw_ms = ms_between(f.due, got);
                    f.result.patient_s = patient_seconds(f.g.spec);
                    if (!r.ok()) {
                        f.result.ok = false;
                        f.result.error = "request " + r.id + " " + r.status + ": " +
                                         r.error_code;
                        continue;
                    }
                    if (r.cached) ++st.cached;
                    if (f.g.kind == 0) {
                        if (r.artifacts != impl_->pool_bytes[f.g.pool]) {
                            f.result.ok = false;
                            f.result.error = "served bytes differ from a direct run: " +
                                             f.g.spec.to_text();
                        }
                    } else {
                        impl_->misses.emplace_back(f.g.spec, r.artifacts);
                    }
                    if (!r.cached) {
                        st.queue_ms.push_back(static_cast<double>(r.queue_us) / 1000.0);
                        st.run_ms.push_back(static_cast<double>(r.run_us) / 1000.0);
                    }
                }
            }
        }
        const double after = gauge.sample();
        const double factor = HostGauge::factor_of(0.5 * (before + after));
        before = after;
        for (const InFlight& f : fl) {
            st.samples.add(f.raw_ms, f.raw_ms / factor, f.g.kind, rec != nullptr,
                           f.result);
        }
        next = base + count;
        offered_s += window;
        st.window_s += ms_between(t0, last) / 1000.0;
    }
    conns.clear();
    st.cache_hits = impl_->server->cache().hits();
    st.cache_misses = impl_->server->cache().misses();
    const std::uint64_t completed =
        impl_->server->metrics().counter_value("serve/completed");
    stop();
    if (completed < st.samples.attempted - st.samples.failed) {
        st.samples.failed += 1;
        st.samples.first_error = "server completed fewer requests than answered";
    }
    return st;
}

std::vector<std::string> ServeBench::verify_misses() const {
    std::vector<std::string> failures;
    for (const auto& [spec, bytes] : impl_->misses) {
        if (sv::artifacts_json_line(ms::registry().run(spec)) != bytes) {
            failures.push_back("served bytes differ from a direct run: " +
                               spec.to_text());
        }
    }
    return failures;
}

void ServeBench::client_probe(HostGauge& gauge, double& hit_us,
                              double& miss_ms) {
    sv::Client client{impl_->server->endpoint()};
    std::vector<double> hits, misses;
    const double before = gauge.sample();
    for (std::uint64_t i = 0; i < 400; ++i) {
        const ms::ScenarioSpec spec =
            i % 20 == 0 ? preset_spec(kPresets[i / 20 % 5],
                                      derive_seed(impl_->seed, 37, i),
                                      kMissMinutes)
                        : impl_->pool[i % impl_->pool.size()];
        const Clock::time_point t0 = Clock::now();
        const sv::Response r = client.run(spec);
        const double ms = ms_between(t0, Clock::now());
        (r.cached ? hits : misses).push_back(ms);
    }
    const double factor = HostGauge::factor_of(0.5 * (before + gauge.sample()));
    hit_us = median(hits) * 1000.0 / factor;
    miss_ms = median(misses) / factor;
}

void run_serve(Context& ctx) {
    ServeBench bench{ctx.opt.seed};
    double setup_raw = 0.0;
    const double setup_norm = time_setup(
        ctx.gauge, ctx.setup_reps(),
        [&] {
            ctx.check_pins();
            for (const std::string& f : bench.start()) ctx.report.fail(f);
        },
        setup_raw, [&] { bench.stop(); });

    const ServeStats st = bench.measure(ctx.gauge, ctx.opt.seconds,
                                        ctx.trace_spans());
    for (const std::string& f : bench.verify_misses()) ctx.report.fail(f);
    const Samples& s = st.samples;
    if (ctx.opt.trace) {
        ctx.report.count(s.attempted, s.failed);
        if (s.failed) ctx.report.fail("request check failed: " + s.first_error);
        ctx.report.metric("trace.overhead_frac", trace_overhead(s), "fraction");
        return;
    }

    Basis b;
    b.limit_ms = kLimitMs;
    b.seconds_norm = st.window_s;  // an open loop's rates are set by its clock
    b.seconds_raw = st.window_s;
    b.setup_norm_s = setup_norm;
    b.setup_raw_s = setup_raw;
    report_end_to_end(ctx.report, s, b);
    Report& rep = ctx.report;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%g req/s offered, %llu cached", kRatePerS,
                  static_cast<unsigned long long>(st.cached));
    rep.note("serve_load", buf);
    std::snprintf(buf, sizeof buf, "p50 %.4f ms, p99 %.4f ms",
                  median(st.late_ms), quantile(st.late_ms, 0.99));
    rep.note("generator_late", buf);
}

}  // namespace perfbench
