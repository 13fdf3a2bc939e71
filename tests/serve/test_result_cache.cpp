/// \file test_result_cache.cpp
/// \brief The server's result cache: the pipeline::ArtifactCache a
/// Server holds, bounded by ServerConfig::cache_entries and keyed by
/// normalized spec text. Miss-then-hit byte identity, LRU order,
/// re-insert refresh, zero capacity, the counters the server reports,
/// and snapshot restore (recency into a smaller bound, malformed lines,
/// wrong headers) through a real server over loopback.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "serve/serve.hpp"
#include "tests/support/pinned_presets.hpp"

namespace {

using namespace mcps;
using namespace mcps::serve;

ServerConfig config(std::size_t cache_entries) {
    ServerConfig cfg;
    cfg.endpoint = Endpoint::tcp("127.0.0.1", 0);  // ephemeral port
    cfg.workers = 1;
    cfg.cache_entries = cache_entries;
    return cfg;
}

std::string tmp_path(const char* name) {
    return std::string{::testing::TempDir()} + name;
}

/// The cache key the server uses for \p preset's pinned spec.
std::string key_of(const char* preset) {
    return testsupport::pinned_spec(preset).to_text();
}

/// Run \p preset's pinned spec; the response must be ok.
Response run(Client& client, const char* preset) {
    Response r = client.run(testsupport::pinned_spec(preset));
    EXPECT_TRUE(r.ok()) << preset << ": " << r.status << " " << r.error_code;
    return r;
}

/// The value of \p name in a stats response (-1 when absent).
double stat(const Response& stats, const std::string& name) {
    const std::string probe = "\"" + name + "\":";
    const std::size_t at = stats.stats.find(probe);
    EXPECT_NE(at, std::string::npos) << name;
    return at == std::string::npos
               ? -1.0
               : std::stod(stats.stats.substr(at + probe.size()));
}

TEST(ResultCache, MissThenHitReturnsIdenticalBytes) {
    Server server{config(4)};
    Client client{server.endpoint()};
    const Response first = run(client, "pca");
    const Response second = run(client, "pca");
    EXPECT_FALSE(first.cached);
    EXPECT_TRUE(second.cached);
    EXPECT_EQ(second.artifacts, first.artifacts);
    const auto hit = server.cache().lookup(key_of("pca"));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->payload, first.artifacts);
    EXPECT_EQ(server.cache().hits(), 2u);  // the second run + the lookup
    EXPECT_EQ(server.cache().misses(), 1u);
    EXPECT_EQ(server.cache().evictions(), 0u);
    server.request_drain();
    server.wait();
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
    Server server{config(2)};
    Client client{server.endpoint()};
    run(client, "pca");
    run(client, "smart-alarm");
    EXPECT_TRUE(run(client, "pca").cached);  // refresh pca; smart-alarm LRU
    run(client, "xray-manual");              // evicts smart-alarm
    pipeline::ArtifactCache& cache = server.cache();
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_TRUE(cache.lookup(key_of("pca")).has_value());
    EXPECT_TRUE(cache.lookup(key_of("xray-manual")).has_value());
    EXPECT_FALSE(cache.lookup(key_of("smart-alarm")).has_value());
    EXPECT_FALSE(run(client, "smart-alarm").cached);
    server.request_drain();
    server.wait();
}

TEST(ResultCache, ReinsertRefreshesValueAndRecency) {
    Server server{config(2)};
    pipeline::ArtifactCache& cache = server.cache();
    cache.insert("a", {"artifacts-json", R"({"v":1})"});
    cache.insert("b", {"artifacts-json", R"({"v":"b"})"});
    cache.insert("a", {"artifacts-json", R"({"v":2})"});  // a newest
    cache.insert("c", {"artifacts-json", R"({"v":"c"})"});  // evicts b
    EXPECT_EQ(cache.lookup("a")->payload, R"({"v":2})");
    EXPECT_FALSE(cache.lookup("b").has_value());
    EXPECT_EQ(cache.size(), 2u);
    server.request_drain();
    server.wait();
}

TEST(ResultCache, ZeroCapacityDisables) {
    Server server{config(0)};
    Client client{server.endpoint()};
    const Response first = run(client, "pca");
    const Response second = run(client, "pca");
    EXPECT_FALSE(first.cached);
    EXPECT_FALSE(second.cached);
    EXPECT_EQ(second.artifacts, first.artifacts);
    EXPECT_EQ(server.cache().size(), 0u);
    EXPECT_FALSE(server.cache().lookup(key_of("pca")).has_value());
    server.request_drain();
    server.wait();
}

/// The stats command reports the cache's own hit/miss/eviction/entry
/// counts under serve/cache/*; the snapshot counts go into the server's
/// SharedMetrics.
TEST(ResultCache, MirrorsCountersIntoSharedMetrics) {
    const std::string snap = tmp_path("result_cache_metrics.snap");
    std::remove(snap.c_str());
    {
        ServerConfig cfg = config(1);
        cfg.cache_save_path = snap;
        Server server{cfg};
        Client client{server.endpoint()};
        run(client, "pca");          // miss
        run(client, "pca");          // hit
        run(client, "smart-alarm");  // miss, evicts pca
        const Response stats = client.stats();
        ASSERT_TRUE(stats.ok());
        EXPECT_EQ(stat(stats, "serve/cache/misses"), 2.0);
        EXPECT_EQ(stat(stats, "serve/cache/hits"), 1.0);
        EXPECT_EQ(stat(stats, "serve/cache/evictions"), 1.0);
        EXPECT_EQ(stat(stats, "serve/cache/entries"), 1.0);
        server.request_drain();
        server.wait();
        EXPECT_EQ(server.metrics().snapshot()
                      .find_counter("serve/cache/snapshot_saved")
                      ->value(),
                  1u);
    }
    ServerConfig cfg = config(4);
    cfg.cache_load_path = snap;
    Server server{cfg};
    EXPECT_EQ(server.metrics().snapshot()
                  .find_counter("serve/cache/snapshot_loaded")
                  ->value(),
              1u);
    server.request_drain();
    server.wait();
    std::remove(snap.c_str());
}

TEST(ResultCache, SnapshotRoundTripPreservesBytesAndRecency) {
    const std::string snap = tmp_path("result_cache_roundtrip.snap");
    std::remove(snap.c_str());
    std::string mid_bytes, new_bytes;
    {
        ServerConfig cfg = config(3);
        cfg.cache_save_path = snap;
        Server server{cfg};
        Client client{server.endpoint()};
        run(client, "pca");  // old
        mid_bytes = run(client, "smart-alarm").artifacts;
        new_bytes = run(client, "xray-manual").artifacts;
        server.request_drain();
        server.wait();
    }
    ServerConfig cfg = config(2);  // smaller: only the 2 most recent stay
    cfg.cache_load_path = snap;
    Server server{cfg};
    EXPECT_EQ(server.metrics().snapshot()
                  .find_counter("serve/cache/snapshot_loaded")
                  ->value(),
              3u);
    EXPECT_EQ(server.cache().size(), 2u);
    EXPECT_FALSE(server.cache().lookup(key_of("pca")).has_value());
    Client client{server.endpoint()};
    const Response mid = run(client, "smart-alarm");
    const Response fresh = run(client, "xray-manual");
    EXPECT_TRUE(mid.cached);
    EXPECT_TRUE(fresh.cached);
    EXPECT_EQ(mid.artifacts, mid_bytes);
    EXPECT_EQ(fresh.artifacts, new_bytes);
    server.request_drain();
    server.wait();
    std::remove(snap.c_str());
}

/// Entries the server restores from \p path on start.
std::size_t loaded_by_server(const std::string& path) {
    ServerConfig cfg = config(8);
    cfg.cache_load_path = path;
    Server server{cfg};
    const std::size_t n = server.cache().size();
    server.request_drain();
    server.wait();
    return n;
}

TEST(ResultCache, LoadSkipsMalformedLinesAndBadHeaders) {
    const std::string path = tmp_path("result_cache_malformed.snap");
    {
        pipeline::ArtifactCache cache;
        cache.insert("good", {"artifacts-json", R"({"x":1})"});
        cache.insert("also-good", {"artifacts-json", R"({"y":2})"});
        ASSERT_TRUE(cache.save(path));
    }
    std::string text;
    {
        std::ifstream in{path, std::ios::binary};
        std::ostringstream os;
        os << in.rdbuf();
        text = os.str();
    }
    // Malformed lines after the entries; the last one would overwrite
    // "good" if its digest were not checked.
    text += "no-tab-in-this-line\n\tempty-key\ntrailing-tab\t\n"
            "0000000000000000\tgood\tartifacts-json\t{\"x\":9}\n";
    {
        std::ofstream out{path, std::ios::binary | std::ios::trunc};
        out << text;
    }
    {
        ServerConfig cfg = config(8);
        cfg.cache_load_path = path;
        Server server{cfg};
        EXPECT_EQ(server.cache().size(), 2u);
        const auto good = server.cache().lookup("good");
        ASSERT_TRUE(good.has_value());
        EXPECT_EQ(good->payload, R"({"x":1})");
        server.request_drain();
        server.wait();
    }

    // A snapshot in another format (here the old serve-cache one) is
    // refused entirely, as is a missing file.
    {
        std::ofstream out{path, std::ios::binary | std::ios::trunc};
        out << "mcps-serve-cache v1\ngood\t{\"x\":1}\n";
    }
    EXPECT_EQ(loaded_by_server(path), 0u);
    EXPECT_EQ(loaded_by_server(tmp_path("result_cache_missing.snap")), 0u);
    std::remove(path.c_str());
}

}  // namespace
