/// \file server.hpp
/// \brief The `mcps serve` scenario-execution service.
///
/// A Server owns one Listener, one accept thread, one reader thread per
/// connection, and `max(1, workers)` scenario worker threads that block
/// on one AdmissionQueue. The data path for a run request:
///
///   reader thread: parse → cache lookup (hit answers inline) → offer
///     to the admission queue (a shed victim's client hears at once)
///   worker: pop the highest-priority pending job, run it through the
///     scenario registry, fill the cache, write the response under the
///     connection's write mutex
///
/// Graceful drain: request_drain() (from the `drain` command, a signal
/// handler, or the embedding test) closes the admission queue — new run
/// requests get a "draining" rejection — and wakes wait(), which stops
/// accepting, joins the workers once they have answered every admitted
/// job, disconnects the remaining clients, joins the readers and finally
/// writes the cache snapshot when configured.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "admission.hpp"
#include "obs/shared_metrics.hpp"
#include "pipeline/cache.hpp"
#include "protocol.hpp"
#include "sim/guarded.hpp"
#include "socket_io.hpp"

namespace mcps::serve {

struct ServerConfig {
    Endpoint endpoint;  ///< where to listen (TCP port 0 = ephemeral)
    unsigned workers = 2;
    std::size_t queue_capacity = 64;
    std::size_t cache_entries = 256;
    std::size_t max_request_bytes = 64 * 1024;
    std::string cache_load_path;  ///< snapshot to load on start ("" = none)
    std::string cache_save_path;  ///< snapshot to write on drain ("" = none)
};

class Server {
public:
    /// Binds and starts serving immediately.
    /// \throws std::runtime_error when the endpoint cannot be bound.
    explicit Server(ServerConfig cfg);

    /// Drains (if not already drained) and joins everything.
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// The bound endpoint (TCP port 0 resolved to the actual port).
    [[nodiscard]] const Endpoint& endpoint() const noexcept {
        return listener_.endpoint();
    }

    /// Begin graceful shutdown (idempotent, safe from any thread
    /// including connection readers and signal-watcher threads).
    void request_drain();

    /// Block until drain has been requested, then tear down: stop
    /// accepting, finish admitted jobs, disconnect clients, join
    /// threads, save the cache snapshot. Returns after full shutdown.
    void wait();

    [[nodiscard]] obs::SharedMetrics& metrics() noexcept { return metrics_; }
    [[nodiscard]] pipeline::ArtifactCache& cache() noexcept { return cache_; }

private:
    // Wall-clock queue/run latency of a real network service; simulated
    // time stays inside the scenario runs.
    // mcps-analyze: allow(SIM1): real-service queue/run wall-latency
    using Clock = std::chrono::steady_clock;

    /// Per-connection shared state. Reader thread and queued jobs both
    /// hold references; writes are serialized by `write_mu`.
    struct Conn {
        explicit Conn(Fd f) : fd{std::move(f)} {}
        Fd fd;
        std::mutex write_mu;
        std::atomic<bool> alive{true};
    };

    struct Job {
        std::string id;
        scenario::ScenarioSpec spec;
        bool no_cache = false;
        std::shared_ptr<Conn> conn;
        Clock::time_point enqueued{};
    };

    void accept_loop();
    void reader_loop(const std::shared_ptr<Conn>& conn);
    void handle_line(const std::shared_ptr<Conn>& conn,
                     const std::string& line);
    void handle_run(const std::shared_ptr<Conn>& conn, Request req);
    void worker_loop();
    void run_job(Job job);
    void send(const std::shared_ptr<Conn>& conn, std::string_view line);
    [[nodiscard]] std::string stats_line() const;

    ServerConfig cfg_;
    obs::SharedMetrics metrics_;
    pipeline::ArtifactCache cache_;
    AdmissionQueue<Job> queue_;
    Listener listener_;
    std::vector<std::thread> workers_;

    Fd wake_read_, wake_write_;  ///< self-pipe to unblock accept_loop
    std::thread accept_thread_;

    std::mutex conns_mu_;
    std::vector<std::shared_ptr<Conn>> conns_ MCPS_GUARDED_BY(conns_mu_);
    std::vector<std::thread> reader_threads_ MCPS_GUARDED_BY(conns_mu_);

    std::mutex drain_mu_;
    std::condition_variable drain_cv_;
    bool drain_requested_ MCPS_GUARDED_BY(drain_mu_) = false;
    std::atomic<bool> draining_{false};
    std::atomic<bool> stopped_{false};
};

}  // namespace mcps::serve
