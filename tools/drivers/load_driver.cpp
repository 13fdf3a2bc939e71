/// \file load_driver.cpp
/// \brief Latency-percentile load generator for `mcps serve` (see
/// drivers.hpp).
///
/// Drives N concurrent synchronous clients against a server — an
/// external one (--port/--unix) or an in-process one on an ephemeral
/// port (--embed; requests still traverse real loopback sockets) — with
/// a deterministic mixed-preset workload: every registered scenario,
/// a bounded seed pool (so the result cache sees repeats), and a
/// clinical/interactive/batch QoS mix. Per-request wall latency lands
/// in per-client sim::Histograms whose exact integer merge yields the
/// p50/p95/p99 columns; `--clients-list 1,4,16,64` sweeps concurrency
/// levels into one report.
///
///   mcps load --embed --clients-list 1,4,16,64 --requests 64 --json out.json
///   mcps load --port 7171 --clients 8 --requests 100 --drain
///
/// Exit codes: 0 = every request answered, 1 = client errors or an
/// unreachable server, 2 = usage.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "../../bench/bench_io.hpp"
#include "../cli.hpp"
#include "../drivers.hpp"
#include "scenario/registry.hpp"
#include "serve/serve.hpp"
#include "sim/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// 0.05 ms resolution up to 500 ms; slower responses clamp to the top
// bin, which only biases p99 downward when the tail is already huge.
constexpr double kHistLoMs = 0.0;
constexpr double kHistHiMs = 500.0;
constexpr std::size_t kHistBins = 10000;

struct Totals {
    std::uint64_t ok = 0;
    std::uint64_t cached = 0;
    std::uint64_t rejected = 0;
    std::uint64_t errors = 0;
};

struct PhaseResult {
    double wall_s = 0.0;
    Totals totals;
    mcps::sim::Histogram latency_ms{kHistLoMs, kHistHiMs, kHistBins};
};

mcps::serve::QosClass pick_class(std::uint64_t r) {
    const std::uint64_t d = r % 10;
    if (d == 0) return mcps::serve::QosClass::kClinical;
    if (d <= 6) return mcps::serve::QosClass::kInteractive;
    return mcps::serve::QosClass::kBatch;
}

PhaseResult run_phase(std::string_view prog, const mcps::serve::Endpoint& ep,
                      unsigned clients, std::uint64_t requests_per_client,
                      std::uint64_t master_seed, std::uint64_t minutes,
                      std::uint64_t seed_pool) {
    const std::vector<std::string> presets =
        mcps::scenario::registry().names();
    PhaseResult result;
    std::vector<PhaseResult> locals(clients);
    std::vector<std::string> failures(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const auto t0 = Clock::now();
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            PhaseResult& mine = locals[c];
            try {
                mcps::serve::Client client{ep};
                std::mt19937_64 rng{master_seed * 1000003 + c};
                for (std::uint64_t i = 0; i < requests_per_client; ++i) {
                    mcps::scenario::ScenarioSpec spec;
                    spec.name = presets[rng() % presets.size()];
                    spec.seed = master_seed + rng() % seed_pool;
                    spec.minutes = minutes;
                    const auto qos = pick_class(rng());
                    const auto r0 = Clock::now();
                    const mcps::serve::Response resp =
                        client.run(spec, qos);
                    const double ms =
                        std::chrono::duration<double, std::milli>(
                            Clock::now() - r0)
                            .count();
                    mine.latency_ms.add(ms);
                    if (resp.ok()) {
                        ++mine.totals.ok;
                        if (resp.cached) ++mine.totals.cached;
                    } else if (resp.rejected()) {
                        ++mine.totals.rejected;
                    } else {
                        ++mine.totals.errors;
                    }
                }
            } catch (const std::exception& e) {
                failures[c] = e.what();
            }
        });
    }
    for (std::thread& t : threads) t.join();
    result.wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    for (unsigned c = 0; c < clients; ++c) {
        if (!failures[c].empty()) {
            std::cerr << prog << ": client " << c << ": " << failures[c]
                      << "\n";
            ++result.totals.errors;
        }
        result.totals.ok += locals[c].totals.ok;
        result.totals.cached += locals[c].totals.cached;
        result.totals.rejected += locals[c].totals.rejected;
        result.totals.errors += locals[c].totals.errors;
        result.latency_ms.merge(locals[c].latency_ms);
    }
    return result;
}

int run_load(std::string_view prog, const mcps::cli::Parsed& p) {
    const bool quick = p.has("--quick");
    const std::uint64_t requests =
        quick ? 8 : p.count("--requests", std::uint64_t{50});
    const std::uint64_t seed = p.count("--seed", std::uint64_t{42});
    const std::uint64_t minutes = p.count("--minutes", std::uint64_t{1});
    const std::uint64_t seed_pool = p.count("--seed-pool", std::uint64_t{12});
    std::vector<unsigned> client_list = p.list("--clients-list");
    if (client_list.empty()) client_list = {p.count("--clients", 4u)};
    if (quick) client_list = {2};
    mcps::benchio::JsonReporter json{"serve_load"};
    json.set_seed(seed);

    std::unique_ptr<mcps::serve::Server> server;
    mcps::serve::Endpoint ep;
    if (p.has("--embed")) {
        mcps::serve::ServerConfig cfg;
        cfg.endpoint = mcps::serve::Endpoint::tcp("127.0.0.1", 0);
        cfg.workers = quick ? 2 : p.count("--workers", 4u);
        cfg.queue_capacity = p.count("--queue", cfg.queue_capacity);
        cfg.cache_entries = p.count("--cache", cfg.cache_entries);
        server = std::make_unique<mcps::serve::Server>(cfg);
        ep = server->endpoint();
    } else if (p.has("--unix")) {
        ep = mcps::serve::Endpoint::unix_path(p.text("--unix"));
    } else {
        ep = mcps::serve::Endpoint::tcp(p.text("--host", "127.0.0.1"),
                                        p.count<std::uint16_t>("--port", 0));
    }

    std::printf("# %.*s against %s (requests/client=%llu, "
                "minutes=%llu, seed-pool=%llu)\n",
                static_cast<int>(prog.size()), prog.data(),
                ep.to_string().c_str(),
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(minutes),
                static_cast<unsigned long long>(seed_pool));
    std::printf("%8s %9s %10s %9s %9s %9s %8s %8s %8s\n", "clients",
                "total", "rps", "p50_ms", "p95_ms", "p99_ms", "cached",
                "rejected", "errors");

    bool any_failed = false;
    for (const unsigned clients : client_list) {
        const PhaseResult r = run_phase(prog, ep, clients, requests, seed,
                                        minutes, seed_pool);
        const std::uint64_t total =
            r.totals.ok + r.totals.rejected + r.totals.errors;
        const double rps =
            r.wall_s > 0.0 ? static_cast<double>(total) / r.wall_s : 0.0;
        const bool have_lat = r.latency_ms.total() > 0;
        const double p50 = have_lat ? r.latency_ms.percentile(50.0) : 0.0;
        const double p95 = have_lat ? r.latency_ms.percentile(95.0) : 0.0;
        const double p99 = have_lat ? r.latency_ms.percentile(99.0) : 0.0;
        std::printf("%8u %9llu %10.1f %9.2f %9.2f %9.2f %8llu %8llu "
                    "%8llu\n",
                    clients, static_cast<unsigned long long>(total), rps,
                    p50, p95, p99,
                    static_cast<unsigned long long>(r.totals.cached),
                    static_cast<unsigned long long>(r.totals.rejected),
                    static_cast<unsigned long long>(r.totals.errors));
        const std::string key = "serve/c" + std::to_string(clients);
        json.metric(key + "/throughput_rps", rps, "requests/s");
        json.metric(key + "/p50_ms", p50, "ms");
        json.metric(key + "/p95_ms", p95, "ms");
        json.metric(key + "/p99_ms", p99, "ms");
        json.metric(key + "/completed", static_cast<double>(r.totals.ok),
                    "requests");
        json.metric(key + "/cached", static_cast<double>(r.totals.cached),
                    "requests");
        json.metric(key + "/rejected", static_cast<double>(r.totals.rejected),
                    "requests");
        json.metric(key + "/errors", static_cast<double>(r.totals.errors),
                    "requests");
        if (r.totals.errors > 0) any_failed = true;
    }

    if (p.has("--drain")) {
        mcps::serve::Client c{ep};
        (void)c.drain();
    }
    if (server) {
        server->request_drain();
        server->wait();
    }
    if (p.has("--json")) {
        mcps::cli::write_file("--json", p.text("--json"),
                              [&](std::ostream& out) { json.write(out); });
        std::cout << "json report: " << p.text("--json") << "\n";
    }
    return any_failed ? 1 : 0;
}

}  // namespace

namespace mcps::drivers {

/// --quick fixes the clients, requests and embedded workers; a
/// --clients-list sweep replaces --clients.
constexpr cli::Mode kModes[] = {
    {"--embed"}, {"--unix"}, {"--port"}, {"--quick"}, {"--clients-list"}};

/// The modes that name a server and let the workload be sized.
constexpr std::string_view kSized = "--embed --unix --port --clients-list";

constexpr cli::Option kOptions[] = {
    {"--embed", cli::kSwitch, "--embed --quick --clients-list",
     "start an in-process server (ephemeral TCP port)"},
    {"--port", cli::count("N", 0, 65535), "--port --quick --clients-list",
     "target an external TCP server"},
    {"--host", cli::text("ADDR"), "--port --quick --clients-list",
     "the TCP server's address (default 127.0.0.1)"},
    {"--unix", cli::text("PATH"), "--unix --quick --clients-list",
     "target an external Unix-socket server"},
    {"--clients", cli::count("N", 1, sim::kMaxJobs), "--embed --unix --port",
     "concurrent clients (default 4, at most 256)"},
    {"--clients-list", cli::list(1, sim::kMaxJobs), kSized,
     "sweep several concurrency levels, e.g. 1,4,16 (each at most 256)"},
    {"--requests", cli::count("N", 1), kSized,
     "requests per client (default 50)"},
    {"--seed", cli::count("N"), "*", "master workload seed (default 42)"},
    {"--minutes", cli::count("N"), "*",
     "scenario minutes per request (default 1)"},
    {"--seed-pool", cli::count("N", 1), "*",
     "distinct seeds per preset (default 12; smaller = more cache hits)"},
    {"--workers", cli::kJobs, "--embed --clients-list",
     "embedded server workers (default 4, at most 256)"},
    {"--queue", cli::count("N"), "--embed --quick --clients-list",
     "embedded admission capacity (default 64)"},
    {"--cache", cli::count("N"), "--embed --quick --clients-list",
     "embedded cache entries (default 256)"},
    {"--drain", cli::kSwitch, "--unix --port --quick --clients-list",
     "send a drain command when done"},
    {"--json", cli::kOutPath, "*", "machine-readable report"},
    {"--quick", cli::kSwitch, "--embed --unix --port --quick",
     "tiny smoke workload: 2 clients of 8 requests (2 embedded workers)"},
};

const cli::Command kLoadCli{"load", "load generator against a serve endpoint",
                            kModes, kOptions};

int load_main(std::string_view prog,
              const std::vector<std::string_view>& argv) {
    return cli::tool_main(prog, kLoadCli, argv, [&](const cli::Parsed& p) {
        if (!p.has("--embed") && !p.has("--unix") &&
            p.count("--port", 0u) == 0) {
            throw cli::CliError{"need --embed, --port or --unix"};
        }
        try {
            return run_load(prog, p);
        } catch (const std::exception& e) {
            std::cerr << prog << ": " << e.what() << "\n";
            return 1;
        }
    });
}

}  // namespace mcps::drivers
