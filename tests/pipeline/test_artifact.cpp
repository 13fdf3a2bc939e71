/// \file test_artifact.cpp
/// \brief Unit tests for the pipeline's content-addressing layer:
/// Artifact digests, cache keys, the ArtifactCache (counters, LRU bound,
/// snapshot round-trip, corrupted and mutated snapshots) and the findings
/// serialization that carries analysis reports between passes.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/hash.hpp"

namespace pipeline = mcps::pipeline;
namespace analysis = mcps::analysis;

namespace {

std::string temp_path(const char* stem) {
    return (std::filesystem::temp_directory_path() /
            (std::string{"mcps_pipeline_"} + stem))
        .string();
}

std::string slurp(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(Artifact, DigestCoversKindAndPayload) {
    const pipeline::Artifact a{"spec", "pca seed=42"};
    const pipeline::Artifact same{"spec", "pca seed=42"};
    const pipeline::Artifact other_payload{"spec", "pca seed=43"};
    const pipeline::Artifact other_kind{"run-json", "pca seed=42"};

    EXPECT_EQ(a.digest(), same.digest());
    EXPECT_NE(a.digest(), other_payload.digest());
    EXPECT_NE(a.digest(), other_kind.digest());
}

TEST(Artifact, FieldSeparatorPreventsBoundarySlides) {
    // "ab" + "c" must not hash like "a" + "bc".
    const pipeline::Artifact a{"ab", "c"};
    const pipeline::Artifact b{"a", "bc"};
    EXPECT_NE(a.digest(), b.digest());
}

TEST(Artifact, DigestHexFormat) {
    const pipeline::Artifact a{"spec", "x"};
    const std::string hex = a.digest_hex();
    ASSERT_EQ(hex.size(), 18u);
    EXPECT_EQ(hex.substr(0, 2), "0x");
    EXPECT_EQ(hex, pipeline::hex64(a.digest()));
}

TEST(ArtifactKey, ChangesWithEveryComponent) {
    const std::vector<std::uint64_t> inputs{1, 2};
    const std::string base =
        pipeline::artifact_key("run:pca", "p=1", inputs, "run/pca/artifacts");

    EXPECT_EQ(base, pipeline::artifact_key("run:pca", "p=1", inputs,
                                           "run/pca/artifacts"));
    EXPECT_NE(base, pipeline::artifact_key("run:xray", "p=1", inputs,
                                           "run/pca/artifacts"));
    EXPECT_NE(base, pipeline::artifact_key("run:pca", "p=2", inputs,
                                           "run/pca/artifacts"));
    EXPECT_NE(base, pipeline::artifact_key("run:pca", "p=1", {1, 3},
                                           "run/pca/artifacts"));
    EXPECT_NE(base, pipeline::artifact_key("run:pca", "p=1", {2, 1},
                                           "run/pca/artifacts"));
    EXPECT_NE(base, pipeline::artifact_key("run:pca", "p=1", inputs,
                                           "run/pca/events"));
    // The output name prefixes the key for debuggability.
    EXPECT_EQ(base.rfind("run/pca/artifacts@0x", 0), 0u);
}

TEST(ArtifactCache, HitMissInsertCounters) {
    pipeline::ArtifactCache cache;
    EXPECT_FALSE(cache.lookup("k1").has_value());
    EXPECT_EQ(cache.misses(), 1u);

    cache.insert("k1", {"spec", "payload"});
    EXPECT_EQ(cache.inserts(), 1u);
    const auto hit = cache.lookup("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->kind, "spec");
    EXPECT_EQ(hit->payload, "payload");
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.size(), 1u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

/// LRU bound: each case runs its operations ("+k=v" inserts, "?k" looks
/// up) on a cache of the given bound and lists the keys that survive.
TEST(ArtifactCache, LruBound) {
    struct Case {
        const char* name;
        std::size_t bound;
        std::vector<std::string> ops;
        std::map<std::string, std::string> survivors;
        std::uint64_t evictions;
    };
    const Case cases[] = {
        {"lookup refreshes recency", 2,
         {"+a=A", "+b=B", "?a", "+c=C"}, {{"a", "A"}, {"c", "C"}}, 1},
        {"re-insert refreshes value and recency", 2,
         {"+a=A1", "+b=B", "+a=A2", "+c=C"}, {{"a", "A2"}, {"c", "C"}}, 1},
        {"evicts oldest first", 2,
         {"+a=A", "+b=B", "+c=C", "+d=D"}, {{"c", "C"}, {"d", "D"}}, 2},
        {"zero holds nothing", 0, {"+a=A", "?a"}, {}, 0},
        {"bound of one", 1, {"+a=A", "+b=B"}, {{"b", "B"}}, 1},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        pipeline::ArtifactCache cache{c.bound};
        for (const std::string& op : c.ops) {
            const std::size_t eq = op.find('=');
            if (op[0] == '+') {
                cache.insert(op.substr(1, eq - 1), {"k", op.substr(eq + 1)});
            } else {
                (void)cache.lookup(op.substr(1));
            }
        }
        EXPECT_EQ(cache.size(), c.survivors.size());
        EXPECT_EQ(cache.evictions(), c.evictions);
        for (const auto& [key, value] : c.survivors) {
            const auto hit = cache.lookup(key);
            ASSERT_TRUE(hit.has_value()) << key;
            EXPECT_EQ(hit->payload, value);
        }
    }

    pipeline::ArtifactCache unbounded;  // the default bound
    for (int i = 0; i < 1000; ++i) {
        unbounded.insert(std::to_string(i), {"k", "v"});
    }
    EXPECT_EQ(unbounded.size(), 1000u);
    EXPECT_EQ(unbounded.evictions(), 0u);
}

TEST(ArtifactCache, SnapshotRoundTripIsByteIdentical) {
    const std::string path_a = temp_path("snap_a");
    const std::string path_b = temp_path("snap_b");

    pipeline::ArtifactCache cache;
    cache.insert("zkey", {"events-jsonl", "line1\nline2\twith tab\n"});
    cache.insert("akey", {"spec", "pca seed=42\\minutes=3"});
    cache.insert("tab\tkey\n", {"kind\\", ""});
    ASSERT_TRUE(cache.save(path_a));

    pipeline::ArtifactCache loaded;
    EXPECT_EQ(loaded.load(path_a), 3u);
    // save -> load -> save is byte-identical (recency order survives).
    ASSERT_TRUE(loaded.save(path_b));
    EXPECT_EQ(slurp(path_a), slurp(path_b));

    const auto z = loaded.lookup("zkey");
    ASSERT_TRUE(z.has_value());
    EXPECT_EQ(z->payload, "line1\nline2\twith tab\n");
    const auto a = loaded.lookup("akey");
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->payload, "pca seed=42\\minutes=3");
    const auto t = loaded.lookup("tab\tkey\n");
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->kind, "kind\\");
    EXPECT_EQ(t->payload, "");

    // Least recent first: a smaller bound keeps the most recent entries.
    pipeline::ArtifactCache recent;
    recent.insert("old", {"k", "O"});
    recent.insert("mid", {"k", "M"});
    recent.insert("new", {"k", "N"});
    ASSERT_TRUE(recent.save(path_a));
    pipeline::ArtifactCache smaller{2};
    EXPECT_EQ(smaller.load(path_a), 3u);
    EXPECT_EQ(smaller.size(), 2u);
    EXPECT_EQ(smaller.lookup("new")->payload, "N");
    EXPECT_EQ(smaller.lookup("mid")->payload, "M");
    EXPECT_FALSE(smaller.lookup("old").has_value());

    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(ArtifactCache, SaveToFullDiskFails) {
    // Small enough to sit in the stream buffer until the final flush.
    pipeline::ArtifactCache cache;
    cache.insert("k", {"spec", "payload"});
    EXPECT_FALSE(cache.save("/dev/full"));
    EXPECT_FALSE(cache.save(temp_path("no_such_dir/snap")));
}

/// A snapshot line carrying \p body (already escaped) and its digest.
std::string digested(const std::string& body) {
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(mcps::sim::fnv1a64(body)));
    return std::string{digest} + "\t" + body + "\n";
}

/// One snapshot line as save() writes it.
std::string snapshot_line(const std::string& key, const std::string& kind,
                          const std::string& payload) {
    return digested(pipeline::snapshot_escape(key) + "\t" +
                    pipeline::snapshot_escape(kind) + "\t" +
                    pipeline::snapshot_escape(payload));
}

TEST(ArtifactCache, LoadSkipsMalformedLines) {
    const std::string path = temp_path("snap_malformed");
    std::string flipped = snapshot_line("flipped", "spec", "payload");
    flipped[flipped.size() - 2] = 'X';  // payload byte no longer digested
    std::string bad_digest = snapshot_line("bad-digest", "spec", "p");
    bad_digest[0] = bad_digest[0] == '0' ? '1' : '0';
    {
        std::ofstream out{path, std::ios::binary};
        out << "mcps-artifact-cache v3\n"
            << snapshot_line("good", "spec", "payload")
            << "missing-fields\n"
            << "no-tab-in-this-line\n"
            << "\tempty-key\n"
            << "trailing-tab\t\n"
            << "\n"
            << digested("")
            << digested("two-fields\tonly")
            << digested("too\tmany\tfields\there")
            << digested("bad-escape\tspec\ttrailing\\")
            << digested("unknown-escape\tspec\t\\x")
            << flipped << bad_digest
            << snapshot_line("also-good", "spec", "ok");
    }
    pipeline::ArtifactCache cache;
    EXPECT_EQ(cache.load(path), 2u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.lookup("good").has_value());
    EXPECT_TRUE(cache.lookup("also-good").has_value());
    std::remove(path.c_str());
}

TEST(ArtifactCache, LoadRejectsWrongHeader) {
    const std::string path = temp_path("snap_header");
    const std::string line = snapshot_line("k", "spec", "p");
    for (const char* header :
         {"some-other-format v9\n", "mcps-artifact-cache v1\n",
          "mcps-artifact-cache v3", "mcps-artifact-cache v3 \n", ""}) {
        SCOPED_TRACE(header);
        {
            std::ofstream out{path, std::ios::binary};
            out << header << line;
        }
        pipeline::ArtifactCache cache;
        EXPECT_EQ(cache.load(path), 0u);
        EXPECT_EQ(cache.size(), 0u);
    }
    std::remove(path.c_str());
}

/// v2 snapshots hold run events and fingerprints from before device
/// states, alarms and clinician actions were events: a well-formed v2
/// file loads nothing, and save writes v3.
TEST(ArtifactCache, VersionTwoSnapshotLoadsNothing) {
    const std::string path = temp_path("snap_v2");
    {
        std::ofstream out{path, std::ios::binary};
        out << "mcps-artifact-cache v2\n"
            << snapshot_line("run/pca/fingerprint", "text", "0x1\n");
    }
    pipeline::ArtifactCache cache;
    EXPECT_EQ(cache.load(path), 0u);

    cache.insert("k", pipeline::Artifact{"spec", "p"});
    ASSERT_TRUE(cache.save(path));
    std::ifstream in{path, std::ios::binary};
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "mcps-artifact-cache v3");
    pipeline::ArtifactCache back;
    EXPECT_EQ(back.load(path), 1u);
    std::remove(path.c_str());
}

TEST(ArtifactCache, MissingSnapshotLoadsNothing) {
    pipeline::ArtifactCache cache;
    EXPECT_EQ(cache.load(temp_path("does_not_exist")), 0u);
}

/// Mutation sweep over a saved snapshot: byte flips, truncations and
/// dropped or duplicated lines. Loading a mutant never crashes, and
/// every entry it loads is one of the saved (key, artifact) pairs.
TEST(ArtifactCache, SnapshotMutantsNeverLoadWrongBytes) {
    const std::map<std::string, pipeline::Artifact> saved = {
        {"pca seed=42 minutes=3", {"artifacts-json", R"({"a":1})"}},
        {"xray seed=1 minutes=9", {"artifacts-json", R"({"b":"x\\y"})"}},
        {"tab\tkey", {"spec", "payload\twith\ttabs"}},
        {"newline\nkey", {"events-jsonl", "l1\nl2\n"}},
        {"back\\slash\\", {"kind\\", "\\\\n not a newline"}},
        {"empty-payload", {"spec", ""}},
        {"", {"spec", "empty key"}},
        {"k8", {"chrome-trace", std::string(300, 'z') + "\n\t\\"}},
    };
    pipeline::ArtifactCache cache;
    for (const auto& [key, art] : saved) cache.insert(key, art);
    const std::string path = temp_path("snap_mutant");
    ASSERT_TRUE(cache.save(path));
    const std::string original = slurp(path);
    {
        pipeline::ArtifactCache clean;
        ASSERT_EQ(clean.load(path), saved.size());
    }

    std::vector<std::string> lines;  // each with its '\n'
    for (std::size_t at = 0; at < original.size();) {
        const std::size_t nl = original.find('\n', at);
        lines.push_back(original.substr(at, nl + 1 - at));
        at = nl + 1;
    }

    std::mt19937_64 rng{20260417};
    std::size_t loaded_any = 0;
    for (int i = 0; i < 2000; ++i) {
        std::string mutant;
        const auto kind = rng() % 4;
        if (kind == 0) {  // flip one byte
            mutant = original;
            char& byte = mutant[rng() % mutant.size()];
            byte = static_cast<char>(byte ^ static_cast<char>(1 + rng() % 255));
        } else if (kind == 1) {  // truncate
            mutant = original.substr(0, rng() % original.size());
        } else {  // drop or duplicate one entry line
            const std::size_t pick = 1 + rng() % (lines.size() - 1);
            for (std::size_t l = 0; l < lines.size(); ++l) {
                if (l != pick || kind == 3) mutant += lines[l];
                if (l == pick && kind == 3) mutant += lines[l];
            }
        }
        {
            std::ofstream out{path, std::ios::binary | std::ios::trunc};
            out << mutant;
        }
        pipeline::ArtifactCache loaded;
        (void)loaded.load(path);
        std::size_t matched = 0;
        for (const auto& [key, art] : saved) {
            const auto hit = loaded.lookup(key);
            if (!hit) continue;
            ++matched;
            EXPECT_EQ(hit->kind, art.kind) << "mutant " << i;
            EXPECT_EQ(hit->payload, art.payload) << "mutant " << i;
        }
        // No entry under a key that was never saved.
        EXPECT_EQ(loaded.size(), matched) << "mutant " << i;
        loaded_any += matched;
    }
    EXPECT_GT(loaded_any, 0u);
    std::remove(path.c_str());
}

TEST(SnapshotEscape, RoundTripsControlBytes) {
    const std::string raw = "a\tb\nc\\d\\te";
    const std::string escaped = pipeline::snapshot_escape(raw);
    EXPECT_EQ(escaped.find('\t'), std::string::npos);
    EXPECT_EQ(escaped.find('\n'), std::string::npos);
    std::string back;
    ASSERT_TRUE(pipeline::snapshot_unescape(escaped, back));
    EXPECT_EQ(back, raw);

    std::string out;
    EXPECT_FALSE(pipeline::snapshot_unescape("dangling\\", out));
    EXPECT_FALSE(pipeline::snapshot_unescape("bad\\x", out));
}

analysis::AnalysisReport sample_report() {
    analysis::AnalysisReport r;
    r.analyzed = {"pump_lockout", "name\twith\ttabs"};
    r.suppressed_findings = 3;
    analysis::Finding f;
    f.rule = analysis::RuleId::kTA1;
    f.severity = analysis::FindingSeverity::kError;
    f.entity = "pump_lockout";
    f.file = "src/ta/pump.cpp";
    f.line = 12;
    f.message = "state 'Violation' reachable\nsecond line\twith tab";
    r.findings.push_back(f);
    analysis::Finding w = f;
    w.rule = analysis::RuleId::kSIM1;
    w.severity = analysis::FindingSeverity::kWarning;
    w.message = "banned construct";
    r.findings.push_back(w);
    return r;
}

TEST(FindingsIo, RoundTripsEveryField) {
    const analysis::AnalysisReport r = sample_report();
    const std::string text = pipeline::write_findings(r);
    const analysis::AnalysisReport back = pipeline::read_findings(text);

    EXPECT_EQ(back.analyzed, r.analyzed);
    EXPECT_EQ(back.suppressed_findings, r.suppressed_findings);
    ASSERT_EQ(back.findings.size(), r.findings.size());
    for (std::size_t i = 0; i < r.findings.size(); ++i) {
        EXPECT_EQ(back.findings[i].rule, r.findings[i].rule);
        EXPECT_EQ(back.findings[i].severity, r.findings[i].severity);
        EXPECT_EQ(back.findings[i].entity, r.findings[i].entity);
        EXPECT_EQ(back.findings[i].file, r.findings[i].file);
        EXPECT_EQ(back.findings[i].line, r.findings[i].line);
        EXPECT_EQ(back.findings[i].message, r.findings[i].message);
    }
    // Serialization is deterministic: write(read(write(r))) == write(r).
    EXPECT_EQ(pipeline::write_findings(back), text);
}

TEST(FindingsIo, MergeConcatenatesInOrder) {
    analysis::AnalysisReport a = sample_report();
    analysis::AnalysisReport b;
    b.analyzed = {"xray_vent_sync"};
    b.suppressed_findings = 1;

    analysis::AnalysisReport merged;
    pipeline::merge_findings(merged, a);
    pipeline::merge_findings(merged, b);
    EXPECT_EQ(merged.analyzed.size(), 3u);
    EXPECT_EQ(merged.analyzed.back(), "xray_vent_sync");
    EXPECT_EQ(merged.suppressed_findings, 4u);
    EXPECT_EQ(merged.findings.size(), 2u);
}

TEST(FindingsIo, RejectsMalformedArtifacts) {
    EXPECT_THROW((void)pipeline::read_findings(""),
                 pipeline::PipelineError);
    EXPECT_THROW((void)pipeline::read_findings("wrong header\n"),
                 pipeline::PipelineError);
    EXPECT_THROW((void)pipeline::read_findings(
                     "mcps-findings v1\nfinding\tNOPE\terror\te\tf\t1\tm\n"),
                 pipeline::PipelineError);
    EXPECT_THROW((void)pipeline::read_findings(
                     "mcps-findings v1\nsuppressed\tnot-a-number\n"),
                 pipeline::PipelineError);
    EXPECT_THROW((void)pipeline::read_findings(
                     "mcps-findings v1\nunknown-record\tx\n"),
                 pipeline::PipelineError);
}

}  // namespace
