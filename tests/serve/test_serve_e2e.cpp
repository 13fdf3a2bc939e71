/// \file test_serve_e2e.cpp
/// \brief End-to-end server tests over real loopback sockets: a mixed
/// concurrent workload whose every response must match the pinned
/// per-preset fingerprints, cache byte-identity (hit and recompute),
/// admission-control rejection under a saturated queue, draining
/// rejections, graceful drain, cache snapshot across a restart, and the
/// socket options of accepted connections.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/serve.hpp"
#include "tests/support/pinned_presets.hpp"

namespace {

using namespace mcps;
using namespace mcps::serve;

ServerConfig base_config() {
    ServerConfig cfg;
    cfg.endpoint = Endpoint::tcp("127.0.0.1", 0);  // ephemeral port
    cfg.workers = 3;
    cfg.queue_capacity = 64;
    cfg.cache_entries = 64;
    return cfg;
}

std::string pin_hex(std::uint64_t fingerprint) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return buf;
}

/// >= 4 concurrent clients, >= 100 mixed-preset requests, every ok
/// response's fingerprint checked against the pinned table, at least
/// one cache hit and at least one recompute, and byte-identical
/// artifacts per preset whether cached or recomputed.
TEST(ServeE2E, MixedWorkloadMatchesPinnedFingerprints) {
    Server server{base_config()};
    constexpr unsigned kClients = 5;
    constexpr int kPerClient = 25;  // 125 requests total

    std::mutex mu;
    std::map<std::string, std::set<std::string>> artifacts_by_preset;
    std::uint64_t ok = 0, cached = 0, recomputed = 0;
    std::vector<std::string> failures;

    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            try {
                Client client{server.endpoint()};
                for (int i = 0; i < kPerClient; ++i) {
                    const auto& pin = testsupport::kPins[
                        (c + static_cast<unsigned>(i)) %
                        std::size(testsupport::kPins)];
                    // A few no_cache requests force recomputes whose
                    // bytes must still match the cached ones.
                    const bool no_cache = (i % 11) == 3;
                    const Response r = client.run(
                        testsupport::pinned_spec(pin.preset),
                        QosClass::kInteractive, no_cache);
                    const std::lock_guard<std::mutex> lock{mu};
                    if (!r.ok()) {
                        failures.push_back(pin.preset +
                                           std::string{": status="} +
                                           r.status + " " + r.error_code);
                        continue;
                    }
                    ++ok;
                    r.cached ? ++cached : ++recomputed;
                    const std::string fp =
                        artifacts_fingerprint(r.artifacts);
                    if (fp != pin_hex(pin.fingerprint)) {
                        failures.push_back(pin.preset + std::string{": "} +
                                           fp + " != pinned");
                    }
                    artifacts_by_preset[pin.preset].insert(r.artifacts);
                }
            } catch (const std::exception& e) {
                const std::lock_guard<std::mutex> lock{mu};
                failures.push_back(std::string{"client threw: "} + e.what());
            }
        });
    }
    for (auto& t : threads) t.join();

    EXPECT_TRUE(failures.empty()) << failures.front();
    EXPECT_EQ(ok, kClients * kPerClient);
    EXPECT_GT(cached, 0u) << "no request ever hit the cache";
    EXPECT_GT(recomputed, 0u);
    // Byte identity: cached and recomputed artifacts are one set.
    ASSERT_EQ(artifacts_by_preset.size(), std::size(testsupport::kPins));
    for (const auto& [preset, bytes] : artifacts_by_preset) {
        EXPECT_EQ(bytes.size(), 1u)
            << preset << ": cached/recomputed artifacts bytes diverged";
    }
    EXPECT_GE(server.cache().hits(), 1u);

    // The stats command reports the cache's own counters over the wire:
    // one hit per cached:true response, one entry per cached spec.
    Client stats_client{server.endpoint()};
    const Response stats = stats_client.stats();
    EXPECT_TRUE(stats.ok());
    EXPECT_NE(stats.stats.find("\"serve/requests\":"), std::string::npos);
    const auto stat = [&stats](const std::string& name) {
        const std::string probe = "\"" + name + "\":";
        const std::size_t at = stats.stats.find(probe);
        EXPECT_NE(at, std::string::npos) << name;
        return at == std::string::npos
                   ? -1.0
                   : std::stod(stats.stats.substr(at + probe.size()));
    };
    EXPECT_EQ(stat("serve/cache/hits"), static_cast<double>(cached));
    EXPECT_EQ(stat("serve/cache/entries"),
              static_cast<double>(server.cache().size()));
    EXPECT_EQ(server.cache().size(), std::size(testsupport::kPins));

    server.request_drain();
    server.wait();
}

TEST(ServeE2E, CachedAndRecomputedBytesIdentical) {
    Server server{base_config()};
    Client client{server.endpoint()};
    const auto spec = testsupport::pinned_spec("smart-alarm");

    const Response fresh1 = client.run(spec, QosClass::kInteractive, true);
    const Response fresh2 = client.run(spec, QosClass::kInteractive, true);
    const Response fill = client.run(spec);  // miss: fills the cache
    const Response hit = client.run(spec);   // hit: replayed bytes
    ASSERT_TRUE(fresh1.ok());
    ASSERT_TRUE(hit.ok());
    EXPECT_FALSE(fresh1.cached);
    EXPECT_FALSE(fresh2.cached);
    EXPECT_FALSE(fill.cached);
    EXPECT_TRUE(hit.cached);
    EXPECT_EQ(fresh1.artifacts, fresh2.artifacts);
    EXPECT_EQ(fresh1.artifacts, fill.artifacts);
    EXPECT_EQ(fresh1.artifacts, hit.artifacts);
}

/// Saturate a 1-worker, 1-slot server with pipelined batch work: the
/// overflow must come back as structured "overloaded" rejections (never
/// silence, never a crash), and a later clinical arrival must still be
/// served (displacing queued batch work when the timing allows).
TEST(ServeE2E, OverloadRejectsExplicitly) {
    ServerConfig cfg = base_config();
    cfg.workers = 1;
    cfg.queue_capacity = 1;
    cfg.cache_entries = 0;  // every run computes
    Server server{cfg};

    Fd conn = connect_to(server.endpoint());
    // One long run to occupy the worker, then a burst.
    const auto line = [](const std::string& id, const std::string& spec_txt,
                         QosClass qos) {
        Request r;
        r.kind = Request::Kind::kRun;
        r.id = id;
        r.spec = scenario::parse_spec(spec_txt);
        r.qos = qos;
        r.no_cache = true;
        return r.to_line();
    };
    std::vector<std::string> lines;
    lines.push_back(line("slow", "pca seed=1 minutes=40",
                         QosClass::kBatch));
    for (int i = 0; i < 5; ++i) {
        std::string id{"b"};
        id += std::to_string(i);
        std::string spec_txt{"pca seed="};
        spec_txt += std::to_string(10 + i);
        spec_txt += " minutes=40";
        lines.push_back(line(id, spec_txt, QosClass::kBatch));
    }
    lines.push_back(line("clin", "smart-alarm seed=2 minutes=1",
                         QosClass::kClinical));
    for (const auto& l : lines) {
        ASSERT_TRUE(write_line(conn.get(), l));
    }

    LineReader reader{conn.get(), 1 << 20};
    std::map<std::string, Response> responses;
    std::string raw;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        ASSERT_EQ(reader.next(raw), LineReader::Status::kLine);
        Response r = parse_response(raw);
        responses.emplace(r.id, std::move(r));
    }
    ASSERT_EQ(responses.size(), lines.size());

    std::uint64_t ok = 0, rejected = 0;
    for (const auto& [id, r] : responses) {
        if (r.ok()) {
            ++ok;
        } else {
            ASSERT_TRUE(r.rejected()) << id << ": " << r.status;
            EXPECT_EQ(r.error_code, "overloaded") << id;
            ++rejected;
        }
    }
    EXPECT_GE(rejected, 1u) << "queue of 1 never overflowed";
    // Which batch jobs survive depends on worker/reader interleaving
    // (the very first job can itself be the shed victim if the worker
    // has not popped it yet), but the clinical request always makes it:
    // it is either admitted or displaces queued batch work.
    EXPECT_GE(ok, 1u);
    EXPECT_TRUE(responses.at("clin").ok())
        << "clinical request was not prioritized through overload";

    server.request_drain();
    server.wait();
    EXPECT_GE(server.metrics().counter_value("serve/rejected/overloaded"),
              rejected);
}

TEST(ServeE2E, DrainRejectsNewWorkAndShutsDownGracefully) {
    Server server{base_config()};
    Client client{server.endpoint()};
    ASSERT_TRUE(client.run(testsupport::pinned_spec("pca")).ok());

    const Response drained = client.drain();
    EXPECT_TRUE(drained.ok());
    EXPECT_TRUE(drained.draining);

    const Response refused = client.run(testsupport::pinned_spec("pca"));
    EXPECT_TRUE(refused.rejected());
    EXPECT_EQ(refused.error_code, "draining");

    // Pings still answer while draining (liveness during shutdown).
    EXPECT_TRUE(client.ping().pong);

    server.wait();  // must return: graceful drain completes
    EXPECT_GE(server.metrics().counter_value("serve/rejected/draining"), 1u);
    EXPECT_EQ(server.metrics().counter_value("serve/completed"), 1u);
}

TEST(ServeE2E, CacheSnapshotSurvivesRestart) {
    const std::string snap =
        std::string{::testing::TempDir()} + "serve_e2e_cache.snap";
    std::remove(snap.c_str());
    const auto spec = testsupport::pinned_spec("xray-manual");
    std::string first_bytes;
    {
        ServerConfig cfg = base_config();
        cfg.cache_save_path = snap;
        Server server{cfg};
        Client client{server.endpoint()};
        const Response r = client.run(spec);
        ASSERT_TRUE(r.ok());
        EXPECT_FALSE(r.cached);
        first_bytes = r.artifacts;
        server.request_drain();
        server.wait();
    }
    {
        ServerConfig cfg = base_config();
        cfg.cache_load_path = snap;
        Server server{cfg};
        Client client{server.endpoint()};
        const Response r = client.run(spec);
        ASSERT_TRUE(r.ok());
        EXPECT_TRUE(r.cached) << "snapshot did not warm the cache";
        EXPECT_EQ(r.artifacts, first_bytes);
        server.request_drain();
        server.wait();
    }
    std::remove(snap.c_str());
}

/// Socket-level robustness: oversized and malformed lines get
/// structured errors and the connection (and server) keep working.
TEST(ServeE2E, MalformedAndOversizedLinesGetStructuredErrors) {
    ServerConfig cfg = base_config();
    cfg.max_request_bytes = 1024;
    Server server{cfg};
    Client client{server.endpoint()};

    const Response huge =
        client.call_raw("{\"id\":\"big\",\"spec\":" +
                        std::string(4096, ' ') + "}");
    EXPECT_EQ(huge.status, "error");
    EXPECT_EQ(huge.error_code, "oversized");

    const Response garbage = client.call_raw("this is not json");
    EXPECT_EQ(garbage.status, "error");
    EXPECT_EQ(garbage.error_code, "bad-request");

    const Response bad_spec =
        client.call_raw(R"({"id":"x","spec":{"scenario":"nope"}})");
    EXPECT_EQ(bad_spec.status, "error");
    EXPECT_EQ(bad_spec.error_code, "bad-spec");

    // Same connection still serves real work afterwards.
    const Response r = client.run(testsupport::pinned_spec("pca"));
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(client.ping().pong);
}

/// Accepted TCP connections carry TCP_NODELAY, so a pipelined response
/// is never held back waiting for the client's ACK of the previous one.
TEST(ServeE2E, AcceptedTcpConnectionHasNoDelay) {
    Listener listener{Endpoint::tcp("127.0.0.1", 0)};
    const Fd client = connect_to(listener.endpoint());
    const Fd accepted = listener.accept_one();
    ASSERT_TRUE(accepted.valid());
    int value = 0;
    socklen_t len = sizeof value;
    ASSERT_EQ(::getsockopt(accepted.get(), IPPROTO_TCP, TCP_NODELAY, &value,
                           &len),
              0);
    EXPECT_EQ(value, 1);
}

}  // namespace
