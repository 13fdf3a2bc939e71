/// \file protocol.hpp
/// \brief The `mcps serve` wire protocol: JSONL requests and responses.
///
/// Framing: one JSON object per LF-terminated line ("JSONL"), with a
/// hard per-line byte bound enforced by the socket layer *before* any
/// parsing (socket_io.hpp). Lines must be valid UTF-8. Lines are read
/// with the shared strict, total JSON reader (obs/json.hpp: depth bound
/// 16, no raw control bytes, \u only up to U+007F, whole-token numbers),
/// and the embedded spec is read in place by scenario::read_spec_json:
/// every malformed input — truncated objects, unknown fields, wrong
/// types, bad escapes, oversized ids — maps to a ProtocolError carrying
/// a machine-readable code, never to a crash or an unbounded allocation
/// (the fuzz-style mutation tests in tests/serve assert exactly this).
///
/// Request lines (exactly one of "spec" / "cmd"):
///   {"id":"r1","spec":{"scenario":"pca","seed":42,"minutes":1,
///    "overrides":{}},"class":"interactive","no_cache":false}
///   {"id":"c1","cmd":"ping"}       liveness probe
///   {"id":"c2","cmd":"stats"}      metrics snapshot (counters/gauges)
///   {"id":"c3","cmd":"drain"}      graceful shutdown request
///
/// Response lines (one per request; "id" echoes the request's):
///   {"id":"r1","status":"ok","cached":false,"queue_us":12,"run_us":900,
///    "artifacts":{...}}                        completed run
///   {"id":"r2","status":"rejected","error":{"code":"overloaded",...}}
///   {"id":"r3","status":"error","error":{"code":"bad-spec",...}}
///
/// QoS classes mirror the middleware-arbitration framing of the
/// resource-management survey (PAPERS.md): "clinical" (alarm-path
/// queries that must not wait behind analytics), "interactive"
/// (operator consoles, the default) and "batch" (campaign sweeps, first
/// to be shed under overload).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "scenario/artifacts.hpp"
#include "scenario/spec.hpp"

namespace mcps::serve {

/// Per-request priority class, highest first. The admission queue pops
/// in class order (FIFO within a class) and sheds from the back.
enum class QosClass : std::uint8_t {
    kClinical = 0,
    kInteractive = 1,
    kBatch = 2,
};
inline constexpr std::size_t kQosClassCount = 3;

[[nodiscard]] std::string_view to_string(QosClass c) noexcept;
/// \throws ProtocolError on an unknown class name.
[[nodiscard]] QosClass parse_qos_class(std::string_view s);

/// A structured protocol failure. `code` is one of the stable wire
/// codes ("bad-request", "bad-spec", "oversized"); `message` is
/// human-readable and is JSON-escaped on the way out.
struct ProtocolError {
    std::string code;
    std::string message;
};

/// One parsed request line.
struct Request {
    enum class Kind : std::uint8_t { kRun, kPing, kStats, kDrain };

    Kind kind = Kind::kRun;
    /// Client-chosen correlation token ([A-Za-z0-9._:-], <= 64 bytes);
    /// echoed verbatim in the response.
    std::string id;
    /// The scenario to run (kRun only).
    scenario::ScenarioSpec spec;
    QosClass qos = QosClass::kInteractive;
    /// Bypass the result cache for this request (both lookup and fill).
    bool no_cache = false;

    /// Canonical request line (used by the client library and the load
    /// generator; round-trips through parse_request).
    [[nodiscard]] std::string to_line() const;
};

/// Maximum accepted id length (bytes).
inline constexpr std::size_t kMaxIdBytes = 64;

/// Parse one request line (without the trailing newline).
/// \throws ProtocolError on any malformed input.
[[nodiscard]] Request parse_request(std::string_view line);

/// True iff \p s is well-formed UTF-8 (rejects overlong encodings,
/// surrogates and out-of-range code points).
[[nodiscard]] bool utf8_valid(std::string_view s) noexcept;

/// Compact single-line rendering of run artifacts:
/// {"spec":{...},"fingerprint":"0x...","outcome":{...}}. This is the
/// byte-exact payload the result cache stores, so a cache hit replays
/// the identical bytes a fresh run would have produced.
[[nodiscard]] std::string artifacts_json_line(
    const scenario::RunArtifacts& a);

// --- Response builders (server side) ---------------------------------

[[nodiscard]] std::string ok_run_response(std::string_view id, bool cached,
                                          std::uint64_t queue_us,
                                          std::uint64_t run_us,
                                          std::string_view artifacts_json);
[[nodiscard]] std::string pong_response(std::string_view id);
[[nodiscard]] std::string stats_response(std::string_view id,
                                         std::string_view stats_json);
[[nodiscard]] std::string drain_response(std::string_view id);
/// \p status is "error" or "rejected".
[[nodiscard]] std::string error_response(std::string_view id,
                                         std::string_view status,
                                         std::string_view code,
                                         std::string_view message);

// --- Response parsing (client side) ----------------------------------

/// One parsed response line. Exactly the fields a client needs; raw
/// sub-objects are preserved verbatim for byte-exact comparisons.
struct Response {
    std::string id;
    std::string status;  ///< "ok" | "error" | "rejected"
    bool cached = false;
    bool pong = false;
    bool draining = false;
    std::uint64_t queue_us = 0;
    std::uint64_t run_us = 0;
    std::string artifacts;  ///< raw JSON object text ("" when absent)
    std::string stats;      ///< raw JSON object text ("" when absent)
    std::string error_code;
    std::string error_message;

    [[nodiscard]] bool ok() const noexcept { return status == "ok"; }
    [[nodiscard]] bool rejected() const noexcept {
        return status == "rejected";
    }
};

/// Parse one response line. \throws ProtocolError on malformed input.
[[nodiscard]] Response parse_response(std::string_view line);

/// Extract the "fingerprint" hex string from a raw artifacts object
/// ("" if absent) — a convenience for verification paths that do not
/// want to re-parse the whole artifact.
[[nodiscard]] std::string artifacts_fingerprint(std::string_view artifacts);

}  // namespace mcps::serve
