/// \file artifact.hpp
/// \brief Artifact: the typed, content-addressed unit of pipeline data.
///
/// Every pass consumes and produces Artifacts — named byte payloads
/// with a small `kind` tag ("spec", "run-json", "events-jsonl",
/// "chrome-trace", "findings", "report-json", "sarif", ...). An
/// artifact's *digest* is a 64-bit FNV-1a over kind + payload; its
/// *cache key* is derived from the producing pass (name, canonical
/// parameter string) and the digests of that pass's inputs, so the key
/// changes exactly when something upstream changed. Two artifacts with
/// equal digests are byte-identical by construction (the repo-wide
/// byte-identity convention the golden traces and ward fingerprints
/// already use).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mcps::pipeline {

/// One named blob of pipeline data.
struct Artifact {
    std::string kind;     ///< small format tag, e.g. "events-jsonl"
    std::string payload;  ///< serialized bytes (UTF-8 text everywhere)

    /// Order- and value-exact 64-bit digest over kind + payload.
    [[nodiscard]] std::uint64_t digest() const noexcept;
    /// "0x%016llx" rendering of digest().
    [[nodiscard]] std::string digest_hex() const;
};

/// The cache key of one pass output: a content hash of everything that
/// determines the output's bytes. \p pass_name and \p params identify
/// the computation (params is the pass's canonical parameter string);
/// \p input_digests are the digests of the pass's declared inputs in
/// declaration order; \p output is the produced artifact's name.
/// Editing any input knob changes its artifact payload, hence its
/// digest, hence every downstream key — and nothing else.
[[nodiscard]] std::string artifact_key(
    std::string_view pass_name, std::string_view params,
    const std::vector<std::uint64_t>& input_digests,
    std::string_view output);

}  // namespace mcps::pipeline
