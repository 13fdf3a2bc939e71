/// \file serve_driver.cpp
/// \brief The long-running scenario-execution service driver (see
/// src/serve and drivers.hpp).
///
/// Binds a JSONL endpoint (TCP or Unix-domain), executes run requests
/// on worker threads with spec-keyed result caching and QoS admission
/// control, and drains gracefully on SIGINT/SIGTERM or a `drain`
/// command.
///
///   mcps serve --port 7171 --workers 4 --queue 64 --cache 256
///   mcps serve --unix /tmp/mcps.sock --cache-save /tmp/mcps.cache
///
/// Prints `listening on <endpoint>` once ready (scrapeable by scripts;
/// `--port 0` picks an ephemeral port and prints the real one), and a
/// `drained:` stats line on shutdown unless --quiet.
///
/// Exit codes: 0 = drained, 1 = the server could not start, 2 = usage.

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <iostream>
#include <string>
#include <thread>

#include "../cli.hpp"
#include "../drivers.hpp"
#include "serve/serve.hpp"

namespace {

// Signal handling via the self-pipe trick: the handler only write()s
// (async-signal-safe); a watcher thread does the actual drain call.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

int serve_until_drained(std::string_view prog,
                        const mcps::serve::ServerConfig& cfg, bool quiet) {
    mcps::serve::Server server{cfg};
    if (::pipe(g_signal_pipe) != 0) {
        std::cerr << prog << ": pipe() failed\n";
        return 1;
    }
    std::signal(SIGINT, &on_signal);
    std::signal(SIGTERM, &on_signal);
    std::thread signal_watcher{[&server] {
        char byte = 0;
        while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
        }
        server.request_drain();
    }};

    std::cout << "listening on " << server.endpoint().to_string()
              << std::endl;  // flush: scripts scrape this line
    server.wait();

    // Unblock the watcher if shutdown came from a drain command.
    const char byte = 'q';
    [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
    signal_watcher.join();

    if (!quiet) {
        const auto& m = server.metrics();
        std::cout << "drained: requests=" << m.counter_value("serve/requests")
                  << " completed=" << m.counter_value("serve/completed")
                  << " cache_hits=" << server.cache().hits()
                  << " shed=" << m.counter_value("serve/shed") << " rejected="
                  << m.counter_value("serve/rejected/overloaded") +
                         m.counter_value("serve/rejected/draining")
                  << "\n";
    }
    return 0;
}

}  // namespace

namespace mcps::drivers {

constexpr cli::Mode kModes[] = {{"--unix"}};

constexpr cli::Option kOptions[] = {
    {"--port", cli::count("N", 0, 65535), "",
     "listen on TCP 127.0.0.1:N (0 = ephemeral, default 0)"},
    {"--host", cli::text("ADDR"), "", "TCP bind address (default 127.0.0.1)"},
    {"--unix", cli::text("PATH"), "*",
     "listen on a Unix-domain socket instead"},
    {"--workers", cli::kJobs, "*",
     "scenario worker threads (default 2, at most 256)"},
    {"--queue", cli::count("N"), "*", "admission queue capacity (default 64)"},
    {"--cache", cli::count("N"), "*",
     "result-cache entries, 0 disables (default 256)"},
    {"--max-request-bytes", cli::count("N"), "*",
     "per-line request bound (default 65536)"},
    {"--cache-load", cli::text("PATH"), "*", "load a cache snapshot on start"},
    {"--cache-save", cli::text("PATH"), "*", "save a cache snapshot on drain"},
    {"--quiet", cli::kSwitch, "*", "suppress the shutdown stats line"},
};

const cli::Command kServeCli{
    "serve", "scenario-execution service (JSONL over TCP/Unix)", kModes,
    kOptions};

int serve_main(std::string_view prog,
               const std::vector<std::string_view>& argv) {
    return cli::tool_main(prog, kServeCli, argv, [&](const cli::Parsed& p) {
        serve::ServerConfig cfg;
        cfg.workers = p.count("--workers", cfg.workers);
        cfg.queue_capacity = p.count("--queue", cfg.queue_capacity);
        cfg.cache_entries = p.count("--cache", cfg.cache_entries);
        cfg.max_request_bytes =
            p.count("--max-request-bytes", cfg.max_request_bytes);
        cfg.cache_load_path = p.text("--cache-load");
        cfg.cache_save_path = p.text("--cache-save");
        cfg.endpoint =
            p.has("--unix")
                ? serve::Endpoint::unix_path(p.text("--unix"))
                : serve::Endpoint::tcp(p.text("--host", "127.0.0.1"),
                                       p.count<std::uint16_t>("--port", 0));
        try {
            return serve_until_drained(prog, cfg, p.has("--quiet"));
        } catch (const std::exception& e) {
            std::cerr << prog << ": " << e.what() << "\n";
            return 1;
        }
    });
}

}  // namespace mcps::drivers
