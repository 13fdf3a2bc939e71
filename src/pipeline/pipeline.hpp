/// \file pipeline.hpp
/// \brief Umbrella header for the composable pass/pipeline layer.
///
/// The pipeline layer (ROADMAP item 5) turns the repo's stages —
/// scenario execution, trace export, model-level analysis, ward
/// campaigns — into registered passes over content-addressed artifacts:
///
///   Artifact       a named (kind, payload) blob; digest = fnv1a64
///   ArtifactCache  key -> artifact, in-memory + optional disk snapshot
///   Pass           declared inputs/outputs + a pure body
///   PipelineGraph  validation, dependency-counting topo scheduling,
///                  cache lookup/insert around every cacheable pass
///   std_passes     the built-in stage registry (run/trace/analyze/ward)
///
/// See DESIGN.md ("Pass/pipeline architecture") for the invalidation
/// and determinism contracts.

#pragma once

#include "artifact.hpp"    // IWYU pragma: export
#include "cache.hpp"       // IWYU pragma: export
#include "findings_io.hpp" // IWYU pragma: export
#include "graph.hpp"       // IWYU pragma: export
#include "pass.hpp"        // IWYU pragma: export
#include "std_passes.hpp"  // IWYU pragma: export
