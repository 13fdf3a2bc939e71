/// \file pass.hpp
/// \brief Pass: one named pipeline stage with declared inputs/outputs.
///
/// A pass declares, up front, the artifact names it consumes and the
/// artifact names it produces; the body is a pure function from inputs
/// (+ the canonical `params` string) to outputs. Purity is the whole
/// contract: the scheduler derives each output's cache key from
/// (pass name, params, input digests), so a body that reads anything
/// else — wall clock, global state, unhashed files — would replay stale
/// bytes from the cache. Passes that must touch the filesystem (source
/// scans) fold a description of what they read into `params`.
///
/// Event logs travel as bytes like every artifact ("events-jsonl"), but
/// a run decodes each at most once: emit_events() keeps the producer's
/// live log beside its JSONL bytes, and events() hands every consumer
/// that log — or, when the producer was replayed from a cache, the
/// bytes decoded on first use. The log never enters an Artifact, a
/// PipelineResult or an ArtifactCache; the run drops it after its last
/// consumer finishes.

#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "artifact.hpp"
#include "obs/event_log.hpp"

namespace mcps::pipeline {

/// The artifact kind of an event log: obs::write_jsonl bytes.
inline constexpr std::string_view kEventsKind = "events-jsonl";

/// Thrown on malformed graphs (duplicate outputs, unknown inputs,
/// cycles) and on pass-body failures. The message is user-facing.
class PipelineError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// The body's window onto the running pipeline: read declared inputs,
/// emit declared outputs. Anything else is out of contract.
class PassContext {
public:
    virtual ~PassContext() = default;

    /// A declared input's artifact. \throws PipelineError when \p name
    /// was not declared as an input of this pass.
    [[nodiscard]] virtual const Artifact& input(
        const std::string& name) const = 0;

    /// Produce a declared output. \throws PipelineError when \p name
    /// was not declared as an output of this pass.
    virtual void emit(const std::string& name, Artifact artifact) = 0;

    /// Produce a declared output whose bytes are write_jsonl(\p log)
    /// (kind kEventsKind) and keep \p log for this run's consumers.
    /// \throws PipelineError as emit() does.
    virtual void emit_events(const std::string& name, obs::EventLog log) = 0;

    /// A declared input's event log: the producer's live log, else the
    /// input's bytes decoded once per run. \throws PipelineError when
    /// \p name was not declared as an input of this pass or is not of
    /// kind kEventsKind.
    [[nodiscard]] virtual const obs::EventLog& events(
        const std::string& name) const = 0;
};

/// One registered pass.
struct Pass {
    /// Unique pass name ("run:pca", "analyze:models", "trace:pca").
    std::string name;
    /// Canonical parameter string, hashed into every output key. Two
    /// passes with the same name+params+inputs must produce the same
    /// bytes.
    std::string params;
    /// Artifact names consumed (each must be a source artifact or
    /// another pass's output). Declaration order is significant: it
    /// fixes the key derivation.
    std::vector<std::string> inputs;
    /// Artifact names produced (unique across the whole graph). Every
    /// declared output must be emitted exactly once by the body.
    std::vector<std::string> outputs;
    /// The body. Must emit every declared output.
    std::function<void(PassContext&)> run;
    /// Filesystem-scanning passes set this false: their outputs depend
    /// on files the key derivation cannot see, so they execute every
    /// run (cheaply) instead of risking a stale replay. Their *outputs*
    /// still feed downstream keys, so an unchanged scan result keeps
    /// downstream passes cache-hot.
    bool cacheable = true;
};

}  // namespace mcps::pipeline
