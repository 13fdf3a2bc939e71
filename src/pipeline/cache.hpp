/// \file cache.hpp
/// \brief ArtifactCache: the one key -> artifact store of the repo.
///
/// The pipeline keys it by artifact keys (artifact.hpp: a content hash
/// of the producing pass + its input digests), so invalidation is
/// structural: a key changes exactly when an upstream input changed.
/// The serve layer keys it by normalized spec text and stores each
/// response's artifacts JSON line.
///
/// An LRU bounded by \p max_entries (unbounded by default, 0 holds
/// nothing): lookup() refreshes recency and an insert past the bound
/// evicts the least-recently-used entry. Mutex-guarded and safe to
/// share across worker threads.
///
/// Snapshots: save() writes a versioned, line-oriented file, least
/// recent first, one `digest<TAB>key<TAB>kind<TAB>payload` line per
/// entry with the three fields snapshot_escape()d and the digest a
/// 16-hex-digit fnv1a64 over the escaped `key<TAB>kind<TAB>payload`.
/// load() re-inserts in file order, which restores recency, and skips
/// any line that is malformed or fails its digest, so a stale, truncated
/// or corrupted snapshot degrades to a smaller cache, never to wrong
/// bytes or a crash. save -> load -> save is byte-identical.

#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "artifact.hpp"
#include "sim/guarded.hpp"

namespace mcps::pipeline {

class ArtifactCache {
public:
    explicit ArtifactCache(
        std::size_t max_entries = std::numeric_limits<std::size_t>::max())
        : max_entries_{max_entries} {}

    /// Returns the cached artifact and refreshes its recency, or
    /// nullopt on a miss.
    [[nodiscard]] std::optional<Artifact> lookup(const std::string& key);

    /// Insert (or overwrite and refresh) an entry, evicting the
    /// least-recently-used entry beyond the bound.
    void insert(const std::string& key, Artifact artifact);

    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t max_entries() const noexcept {
        return max_entries_;
    }
    [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
    [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
    [[nodiscard]] std::uint64_t inserts() const noexcept { return inserts_; }
    [[nodiscard]] std::uint64_t evictions() const noexcept {
        return evictions_;
    }

    void clear();

    /// Write a snapshot to \p path, least recent first. Returns false
    /// when the file cannot be opened or any byte fails to reach it.
    [[nodiscard]] bool save(const std::string& path) const;

    /// Load a snapshot written by save(), inserting entries in file
    /// order (subject to the bound; counters are not restored). Skips
    /// malformed lines and lines whose digest does not match. Returns
    /// the number of entries inserted; 0 when the file is missing,
    /// unreadable or has another header.
    std::size_t load(const std::string& path);

private:
    using Entry = std::pair<std::string, Artifact>;

    const std::size_t max_entries_;

    mutable std::mutex mu_;
    std::list<Entry> lru_ MCPS_GUARDED_BY(mu_);  ///< front = most recent
    std::unordered_map<std::string, std::list<Entry>::iterator> index_
        MCPS_GUARDED_BY(mu_);
    // Bumped under mu_, read without it.
    std::atomic<std::uint64_t> hits_{0}, misses_{0}, inserts_{0},
        evictions_{0};
};

/// Escape a field for the one-line snapshot format: backslash, tab and
/// newline become \\, \t, \n.
[[nodiscard]] std::string snapshot_escape(std::string_view s);
/// Inverse of snapshot_escape. Returns false on a dangling backslash
/// or unknown escape (the malformed-line signal).
[[nodiscard]] bool snapshot_unescape(std::string_view s, std::string& out);

}  // namespace mcps::pipeline
