#include "server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "scenario/registry.hpp"

namespace mcps::serve {

namespace {

// Wall-latency of a real network service, not simulated time — the
// scenario runs themselves stay on sim::SimTime.
// mcps-analyze: allow(SIM1): real-service queue/run wall-latency
using WallClock = std::chrono::steady_clock;

/// The kind tag of every cached serve result (an artifacts_json_line).
constexpr const char* kArtifactsKind = "artifacts-json";

std::uint64_t micros_since(WallClock::time_point t0,
                           WallClock::time_point t1) {
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count();
    return us > 0 ? static_cast<std::uint64_t>(us) : 0;
}

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_{std::move(cfg)},
      cache_{cfg_.cache_entries},
      queue_{cfg_.queue_capacity},
      listener_{cfg_.endpoint} {
    if (!cfg_.cache_load_path.empty()) {
        const std::size_t n = cache_.load(cfg_.cache_load_path);
        metrics_.add("serve/cache/snapshot_loaded", n);
    }
    int fds[2];
    if (::pipe(fds) != 0) {
        throw std::runtime_error("pipe() failed for serve wake channel");
    }
    wake_read_ = Fd{fds[0]};
    wake_write_ = Fd{fds[1]};
    try {
        const unsigned n = std::max(1u, cfg_.workers);
        workers_.reserve(n);
        for (unsigned i = 0; i < n; ++i) {
            workers_.emplace_back([this] { worker_loop(); });
        }
        accept_thread_ = std::thread{[this] { accept_loop(); }};
    } catch (...) {
        queue_.close();
        for (std::thread& t : workers_) t.join();
        throw;
    }
}

Server::~Server() {
    request_drain();
    wait();
}

void Server::accept_loop() {
    while (!draining_) {
        pollfd pfds[2] = {{listener_.fd(), POLLIN, 0},
                          {wake_read_.get(), POLLIN, 0}};
        const int r = ::poll(pfds, 2, -1);
        if (r < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if ((pfds[1].revents & POLLIN) != 0) break;  // drain wake-up
        if ((pfds[0].revents & POLLIN) == 0) continue;
        Fd fd = listener_.accept_one();
        if (!fd.valid()) continue;
        auto conn = std::make_shared<Conn>(std::move(fd));
        {
            const std::lock_guard<std::mutex> lock{conns_mu_};
            if (draining_) continue;  // raced with drain: drop it
            conns_.push_back(conn);
            reader_threads_.emplace_back(
                [this, conn] { reader_loop(conn); });
        }
        metrics_.add("serve/connections");
    }
}

void Server::reader_loop(const std::shared_ptr<Conn>& conn) {
    LineReader reader{conn->fd.get(), cfg_.max_request_bytes};
    std::string line;
    while (conn->alive) {
        const LineReader::Status st = reader.next(line);
        if (st == LineReader::Status::kEof ||
            st == LineReader::Status::kError) {
            break;
        }
        if (st == LineReader::Status::kOversized) {
            metrics_.add("serve/errors/oversized");
            send(conn, error_response(
                           "", "error", "oversized",
                           "request line exceeds " +
                               std::to_string(cfg_.max_request_bytes) +
                               " bytes"));
            continue;
        }
        handle_line(conn, line);
    }
    conn->alive = false;
}

void Server::handle_line(const std::shared_ptr<Conn>& conn,
                         const std::string& line) {
    Request req;
    try {
        req = parse_request(line);
    } catch (const ProtocolError& e) {
        metrics_.add("serve/errors/" + e.code);
        send(conn, error_response("", "error", e.code, e.message));
        return;
    }
    switch (req.kind) {
        case Request::Kind::kPing:
            send(conn, pong_response(req.id));
            return;
        case Request::Kind::kStats:
            send(conn, stats_response(req.id, stats_line()));
            return;
        case Request::Kind::kDrain:
            send(conn, drain_response(req.id));
            request_drain();
            return;
        case Request::Kind::kRun:
            handle_run(conn, std::move(req));
            return;
    }
}

void Server::handle_run(const std::shared_ptr<Conn>& conn, Request req) {
    metrics_.add("serve/requests");
    if (draining_) {
        // Even cache hits are refused once draining: drain means "no
        // new results from this server", not "only slow ones".
        metrics_.add("serve/rejected/draining");
        send(conn, error_response(req.id, "rejected", "draining",
                                  "server is draining"));
        return;
    }
    if (!req.no_cache) {
        if (auto hit = cache_.lookup(req.spec.to_text())) {
            metrics_.add("serve/completed");
            send(conn, ok_run_response(req.id, true, 0, 0, hit->payload));
            return;
        }
    }
    const std::string id = req.id;  // survives the move into the queue
    Job job;
    job.id = std::move(req.id);
    job.spec = std::move(req.spec);
    job.no_cache = req.no_cache;
    job.conn = conn;
    job.enqueued = Clock::now();
    auto offer = queue_.offer(std::move(job), req.qos);
    switch (offer.outcome) {
        case AdmissionQueue<Job>::Outcome::kAdmitted:
            return;
        case AdmissionQueue<Job>::Outcome::kShed: {
            // This request took the displaced lower-priority job's
            // place; the victim's client hears immediately.
            metrics_.add("serve/shed");
            metrics_.add("serve/rejected/overloaded");
            const Job& victim = *offer.victim;
            send(victim.conn,
                 error_response(victim.id, "rejected", "overloaded",
                                "shed for a higher-priority arrival"));
            return;
        }
        case AdmissionQueue<Job>::Outcome::kRejected:
            metrics_.add("serve/rejected/overloaded");
            send(conn, error_response(
                           id, "rejected", "overloaded",
                           "admission queue full of equal-or-higher-"
                           "priority work"));
            return;
        case AdmissionQueue<Job>::Outcome::kClosed:
            metrics_.add("serve/rejected/draining");
            send(conn, error_response(id, "rejected", "draining",
                                      "server is draining"));
            return;
    }
}

void Server::worker_loop() {
    while (auto popped = queue_.pop()) run_job(std::move(popped->first));
}

void Server::run_job(Job job) {
    const auto t0 = Clock::now();
    const std::uint64_t queue_us = micros_since(job.enqueued, t0);
    std::string artifacts;
    try {
        const scenario::RunArtifacts a = scenario::registry().run(job.spec);
        artifacts = artifacts_json_line(a);
    } catch (const scenario::SpecError& e) {
        metrics_.add("serve/errors/bad-spec");
        send(job.conn, error_response(job.id, "error", "bad-spec", e.what()));
        return;
    } catch (const std::exception& e) {
        metrics_.add("serve/errors/internal");
        send(job.conn, error_response(job.id, "error", "internal", e.what()));
        return;
    }
    const std::uint64_t run_us = micros_since(t0, Clock::now());
    if (!job.no_cache) {
        cache_.insert(job.spec.to_text(), {kArtifactsKind, artifacts});
    }
    metrics_.add("serve/completed");
    metrics_.observe("serve/queue_ms", 0.0, 1000.0, 100,
                     static_cast<double>(queue_us) / 1000.0);
    metrics_.observe("serve/run_ms", 0.0, 10000.0, 100,
                     static_cast<double>(run_us) / 1000.0);
    send(job.conn,
         ok_run_response(job.id, false, queue_us, run_us, artifacts));
}

void Server::send(const std::shared_ptr<Conn>& conn, std::string_view line) {
    if (!conn->alive) return;
    const std::lock_guard<std::mutex> lock{conn->write_mu};
    if (!write_line(conn->fd.get(), line)) conn->alive = false;
}

std::string Server::stats_line() const {
    const obs::MetricsRegistry snap = metrics_.snapshot();
    std::ostringstream os;
    os << "{\"counters\":{";
    const auto counter = [&snap](const char* name) -> std::uint64_t {
        const obs::Counter* c = snap.find_counter(name);
        return c != nullptr ? c->value() : 0;
    };
    // No public iteration API on the registry; rebuild via write_json
    // would be multiline, so probe the serve-relevant names directly.
    // The cache counters come from the cache itself.
    const std::pair<const char*, std::uint64_t> counters[] = {
        {"serve/connections", counter("serve/connections")},
        {"serve/requests", counter("serve/requests")},
        {"serve/completed", counter("serve/completed")},
        {"serve/shed", counter("serve/shed")},
        {"serve/rejected/overloaded", counter("serve/rejected/overloaded")},
        {"serve/rejected/draining", counter("serve/rejected/draining")},
        {"serve/errors/bad-request", counter("serve/errors/bad-request")},
        {"serve/errors/bad-spec", counter("serve/errors/bad-spec")},
        {"serve/errors/oversized", counter("serve/errors/oversized")},
        {"serve/errors/internal", counter("serve/errors/internal")},
        {"serve/cache/hits", cache_.hits()},
        {"serve/cache/misses", cache_.misses()},
        {"serve/cache/evictions", cache_.evictions()},
        {"serve/cache/snapshot_loaded",
         counter("serve/cache/snapshot_loaded")},
    };
    const char* sep = "";
    for (const auto& [name, value] : counters) {
        os << sep << "\"" << name << "\":" << value;
        sep = ",";
    }
    os << "},\"gauges\":{\"serve/cache/entries\":"
       << static_cast<double>(cache_.size()) << "}}";
    return os.str();
}

void Server::request_drain() {
    {
        const std::lock_guard<std::mutex> lock{drain_mu_};
        if (drain_requested_) return;
        drain_requested_ = true;
    }
    draining_ = true;
    queue_.close();
    const char byte = 'd';
    [[maybe_unused]] const ssize_t n = ::write(wake_write_.get(), &byte, 1);
    drain_cv_.notify_all();
}

void Server::wait() {
    {
        std::unique_lock<std::mutex> lock{drain_mu_};
        drain_cv_.wait(lock, [this] { return drain_requested_; });
    }
    if (stopped_.exchange(true)) return;  // someone else tore down
    if (accept_thread_.joinable()) accept_thread_.join();
    // Every admitted job finishes and answers before we disconnect: the
    // queue is closed, so each worker returns once it is drained.
    for (std::thread& t : workers_) t.join();
    std::vector<std::thread> readers;
    {
        const std::lock_guard<std::mutex> lock{conns_mu_};
        for (const auto& c : conns_) {
            c->alive = false;
            ::shutdown(c->fd.get(), SHUT_RDWR);
        }
        readers.swap(reader_threads_);
    }
    for (std::thread& t : readers) {
        if (t.joinable()) t.join();
    }
    if (!cfg_.cache_save_path.empty()) {
        if (cache_.save(cfg_.cache_save_path)) {
            metrics_.add("serve/cache/snapshot_saved", cache_.size());
        }
    }
}

}  // namespace mcps::serve
