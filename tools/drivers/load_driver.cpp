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

void usage(std::ostream& os, std::string_view prog) {
    os << "usage: " << prog
       << " [options]\n"
          "  --embed                start an in-process server (ephemeral "
          "TCP port)\n"
          "  --port N / --host A    target an external TCP server\n"
          "  --unix PATH            target an external Unix-socket server\n"
          "  --clients N            concurrent clients (default 4)\n"
          "  --clients-list 1,4,16  sweep several concurrency levels\n"
          "  --requests N           requests per client (default 50)\n"
          "  --seed N               master workload seed (default 42)\n"
          "  --minutes N            scenario minutes per request "
          "(default 1)\n"
          "  --seed-pool N          distinct seeds per preset (default 12;"
          " smaller = more cache hits)\n"
          "  --workers N            embedded server workers (default 4)\n"
          "  --queue N              embedded admission capacity "
          "(default 64)\n"
          "  --cache N              embedded cache entries (default 256)\n"
          "  --drain                send a drain command when done\n"
          "  --json PATH            machine-readable report\n"
          "  --quick                tiny smoke workload\n";
}

struct LoadCli {
    bool embed = false;
    bool drain = false;
    bool quick = false;
    std::string host = "127.0.0.1";
    std::string unix_sock;
    std::uint64_t port = 0, requests = 50, seed = 42, minutes = 1;
    std::uint64_t seed_pool = 12;
    std::vector<unsigned> client_list;
    std::string json_path;
    mcps::serve::ServerConfig embed_cfg;
};

int run_load(std::string_view prog, LoadCli& cli) {
    mcps::benchio::JsonReporter json{"serve_load", cli.json_path};
    json.set_seed(cli.seed);

    std::unique_ptr<mcps::serve::Server> server;
    mcps::serve::Endpoint ep;
    if (cli.embed) {
        cli.embed_cfg.endpoint = mcps::serve::Endpoint::tcp("127.0.0.1", 0);
        server = std::make_unique<mcps::serve::Server>(cli.embed_cfg);
        ep = server->endpoint();
    } else if (!cli.unix_sock.empty()) {
        ep = mcps::serve::Endpoint::unix_path(cli.unix_sock);
    } else {
        ep = mcps::serve::Endpoint::tcp(cli.host,
                                        static_cast<std::uint16_t>(cli.port));
    }

    std::printf("# %.*s against %s (requests/client=%llu, "
                "minutes=%llu, seed-pool=%llu)\n",
                static_cast<int>(prog.size()), prog.data(),
                ep.to_string().c_str(),
                static_cast<unsigned long long>(cli.requests),
                static_cast<unsigned long long>(cli.minutes),
                static_cast<unsigned long long>(cli.seed_pool));
    std::printf("%8s %9s %10s %9s %9s %9s %8s %8s %8s\n", "clients",
                "total", "rps", "p50_ms", "p95_ms", "p99_ms", "cached",
                "rejected", "errors");

    bool any_failed = false;
    for (const unsigned clients : cli.client_list) {
        const PhaseResult r = run_phase(prog, ep, clients, cli.requests,
                                        cli.seed, cli.minutes, cli.seed_pool);
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
        const std::string p = "serve/c" + std::to_string(clients);
        json.metric(p + "/throughput_rps", rps, "requests/s");
        json.metric(p + "/p50_ms", p50, "ms");
        json.metric(p + "/p95_ms", p95, "ms");
        json.metric(p + "/p99_ms", p99, "ms");
        json.metric(p + "/completed", static_cast<double>(r.totals.ok),
                    "requests");
        json.metric(p + "/cached", static_cast<double>(r.totals.cached),
                    "requests");
        json.metric(p + "/rejected", static_cast<double>(r.totals.rejected),
                    "requests");
        json.metric(p + "/errors", static_cast<double>(r.totals.errors),
                    "requests");
        if (r.totals.errors > 0) any_failed = true;
    }

    if (cli.drain && !cli.embed) {
        mcps::serve::Client c{ep};
        (void)c.drain();
    }
    if (server) {
        server->request_drain();
        server->wait();
    }
    if (!json.write()) return 1;
    return any_failed ? 1 : 0;
}

}  // namespace

namespace mcps::drivers {

int load_main(std::string_view prog,
              const std::vector<std::string_view>& argv) {
    using cli::CliError;
    return cli::tool_main(
        prog, [&](std::ostream& os) { usage(os, prog); },
        [&]() -> int {
        LoadCli lc;
        lc.embed_cfg.workers = 4;
        cli::Args args{argv};
        while (!args.done()) {
            const auto arg = args.next();
            const auto value = [&] { return args.value(arg); };
            if (arg == "--embed") {
                lc.embed = true;
            } else if (arg == "--port") {
                lc.port = cli::parse_u64(arg, value());
                if (lc.port > 65535) throw CliError{"--port: out of range"};
            } else if (arg == "--host") {
                lc.host = std::string{value()};
            } else if (arg == "--unix") {
                lc.unix_sock = std::string{value()};
            } else if (arg == "--clients") {
                lc.client_list = {
                    static_cast<unsigned>(cli::parse_u64(arg, value()))};
            } else if (arg == "--clients-list") {
                lc.client_list = cli::parse_unsigned_list(arg, value());
            } else if (arg == "--requests") {
                lc.requests = cli::parse_u64(arg, value());
            } else if (arg == "--seed") {
                lc.seed = cli::parse_u64(arg, value());
            } else if (arg == "--minutes") {
                lc.minutes = cli::parse_u64(arg, value());
            } else if (arg == "--seed-pool") {
                lc.seed_pool = cli::parse_u64(arg, value());
                if (lc.seed_pool == 0) {
                    throw CliError{"--seed-pool: must be >= 1"};
                }
            } else if (arg == "--workers") {
                lc.embed_cfg.workers =
                    static_cast<unsigned>(cli::parse_u64(arg, value()));
            } else if (arg == "--queue") {
                lc.embed_cfg.queue_capacity = cli::parse_u64(arg, value());
            } else if (arg == "--cache") {
                lc.embed_cfg.cache_entries = cli::parse_u64(arg, value());
            } else if (arg == "--drain") {
                lc.drain = true;
            } else if (arg == "--json") {
                lc.json_path = std::string{value()};
            } else if (arg == "--quick") {
                lc.quick = true;
            } else if (arg == "--help") {
                usage(std::cout, prog);
                return 0;
            } else {
                throw CliError{"unknown option '" + std::string{arg} + "'"};
            }
        }
        if (!lc.embed && lc.unix_sock.empty() && lc.port == 0) {
            throw CliError{"need --embed, --port or --unix"};
        }
        if (lc.client_list.empty()) lc.client_list = {4};
        if (lc.quick) {
            lc.client_list = {2};
            lc.requests = 8;
            lc.embed_cfg.workers = 2;
        }
        try {
            return run_load(prog, lc);
        } catch (const std::exception& e) {
            std::cerr << prog << ": " << e.what() << "\n";
            return 1;
        }
        });
}

}  // namespace mcps::drivers
