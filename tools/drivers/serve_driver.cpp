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

void usage(std::ostream& os, std::string_view prog) {
    os << "usage: " << prog
       << " [options]\n"
          "  --port N               listen on TCP 127.0.0.1:N (0 = ephemeral"
          ", default 0)\n"
          "  --host ADDR            TCP bind address (default 127.0.0.1)\n"
          "  --unix PATH            listen on a Unix-domain socket instead\n"
          "  --workers N            scenario worker threads (default 2, at "
          "most 256)\n"
          "  --queue N              admission queue capacity (default 64)\n"
          "  --cache N              result-cache entries, 0 disables "
          "(default 256)\n"
          "  --max-request-bytes N  per-line request bound (default 65536)\n"
          "  --cache-load PATH      load a cache snapshot on start\n"
          "  --cache-save PATH      save a cache snapshot on drain\n"
          "  --quiet                suppress the shutdown stats line\n"
          "  --help                 this text\n";
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

int serve_main(std::string_view prog,
               const std::vector<std::string_view>& argv) {
    using cli::CliError;
    return cli::tool_main(
        prog, [&](std::ostream& os) { usage(os, prog); },
        [&]() -> int {
        serve::ServerConfig cfg;
        std::string host = "127.0.0.1";
        std::uint64_t port = 0;
        std::string unix_sock;
        bool quiet = false;
        cli::Args args{argv};
        while (!args.done()) {
            const auto arg = args.next();
            const auto value = [&] { return args.value(arg); };
            if (arg == "--port") {
                port = cli::parse_u64(arg, value());
                if (port > 65535) throw CliError{"--port: out of range"};
            } else if (arg == "--host") {
                host = std::string{value()};
            } else if (arg == "--unix") {
                unix_sock = std::string{value()};
            } else if (arg == "--workers") {
                cfg.workers = cli::parse_jobs(arg, value());
            } else if (arg == "--queue") {
                cfg.queue_capacity = cli::parse_u64(arg, value());
            } else if (arg == "--cache") {
                cfg.cache_entries = cli::parse_u64(arg, value());
            } else if (arg == "--max-request-bytes") {
                cfg.max_request_bytes = cli::parse_u64(arg, value());
            } else if (arg == "--cache-load") {
                cfg.cache_load_path = std::string{value()};
            } else if (arg == "--cache-save") {
                cfg.cache_save_path = std::string{value()};
            } else if (arg == "--quiet") {
                quiet = true;
            } else if (arg == "--help") {
                usage(std::cout, prog);
                return 0;
            } else {
                throw CliError{"unknown option '" + std::string{arg} + "'"};
            }
        }
        cfg.endpoint =
            unix_sock.empty()
                ? serve::Endpoint::tcp(host, static_cast<std::uint16_t>(port))
                : serve::Endpoint::unix_path(unix_sock);
        try {
            return serve_until_drained(prog, cfg, quiet);
        } catch (const std::exception& e) {
            std::cerr << prog << ": " << e.what() << "\n";
            return 1;
        }
        });
}

}  // namespace mcps::drivers
