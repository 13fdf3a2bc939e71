#include "cache.hpp"

#include <cstdio>
#include <fstream>

#include "sim/hash.hpp"

namespace mcps::pipeline {

namespace {

/// Artifact keys carry no code version, so a payload whose content the
/// code changes (run events and fingerprints in v3) needs a new header:
/// a snapshot of another version then loads nothing.
constexpr std::string_view kSnapshotHeader = "mcps-artifact-cache v3";
constexpr std::size_t kDigestHexDigits = 16;

std::string digest_field(std::string_view body) {
    char buf[kDigestHexDigits + 1];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(sim::fnv1a64(body)));
    return buf;
}

/// One snapshot line back into (key, artifact); false when the line is
/// malformed or its digest does not cover its bytes.
bool parse_line(std::string_view line, std::string& key, Artifact& art) {
    if (line.size() <= kDigestHexDigits ||
        line[kDigestHexDigits] != '\t') {
        return false;
    }
    const std::string_view body = line.substr(kDigestHexDigits + 1);
    if (line.substr(0, kDigestHexDigits) != digest_field(body)) return false;
    const std::size_t t1 = body.find('\t');
    const std::size_t t2 = body.find('\t', t1 + 1);
    if (t1 == std::string_view::npos || t2 == std::string_view::npos ||
        body.find('\t', t2 + 1) != std::string_view::npos) {
        return false;
    }
    return snapshot_unescape(body.substr(0, t1), key) &&
           snapshot_unescape(body.substr(t1 + 1, t2 - t1 - 1), art.kind) &&
           snapshot_unescape(body.substr(t2 + 1), art.payload);
}

}  // namespace

std::optional<Artifact> ArtifactCache::lookup(const std::string& key) {
    const std::lock_guard lock{mu_};
    const auto it = index_.find(key);
    if (it == index_.end()) {
        ++misses_;
        return std::nullopt;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
}

void ArtifactCache::insert(const std::string& key, Artifact artifact) {
    if (max_entries_ == 0) return;
    const std::lock_guard lock{mu_};
    ++inserts_;
    const auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = std::move(artifact);
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(key, std::move(artifact));
    index_.emplace(key, lru_.begin());
    while (lru_.size() > max_entries_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++evictions_;
    }
}

std::size_t ArtifactCache::size() const {
    const std::lock_guard lock{mu_};
    return lru_.size();
}

void ArtifactCache::clear() {
    const std::lock_guard lock{mu_};
    lru_.clear();
    index_.clear();
}

bool ArtifactCache::save(const std::string& path) const {
    std::string text{kSnapshotHeader};
    text += '\n';
    {
        const std::lock_guard lock{mu_};
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
            const std::string body = snapshot_escape(it->first) + '\t' +
                                     snapshot_escape(it->second.kind) +
                                     '\t' +
                                     snapshot_escape(it->second.payload);
            text += digest_field(body);
            text += '\t';
            text += body;
            text += '\n';
        }
    }
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    if (!out) return false;
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.close();  // flushes: a full disk shows up here, not before
    return !out.fail();
}

std::size_t ArtifactCache::load(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    if (!in) return 0;
    // A fixed-size header read: a device like /dev/full or /dev/zero has
    // no newline for getline to stop at.
    std::string line(kSnapshotHeader.size() + 1, '\0');
    if (!in.read(line.data(), static_cast<std::streamsize>(line.size())) ||
        line.substr(0, kSnapshotHeader.size()) != kSnapshotHeader ||
        line.back() != '\n') {
        return 0;
    }
    std::size_t inserted = 0;
    std::string key;
    Artifact art;
    while (std::getline(in, line)) {
        if (!parse_line(line, key, art)) continue;
        insert(key, std::move(art));
        ++inserted;
    }
    return inserted;
}

std::string snapshot_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '\\': out += "\\\\"; break;
            case '\t': out += "\\t"; break;
            case '\n': out += "\\n"; break;
            default: out += c;
        }
    }
    return out;
}

bool snapshot_unescape(std::string_view s, std::string& out) {
    out.clear();
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out += s[i];
            continue;
        }
        if (++i >= s.size()) return false;
        switch (s[i]) {
            case '\\': out += '\\'; break;
            case 't': out += '\t'; break;
            case 'n': out += '\n'; break;
            default: return false;
        }
    }
    return true;
}

}  // namespace mcps::pipeline
