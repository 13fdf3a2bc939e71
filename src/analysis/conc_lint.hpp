/// \file conc_lint.hpp
/// \brief CONC1: lock-discipline lint over MCPS_GUARDED_BY /
/// MCPS_REQUIRES / MCPS_LOCK_ORDER annotations (src/sim/guarded.hpp).
///
/// The pass is a lexical, two-phase analysis built on the same
/// comment/string-stripping machinery as SIM1 (scan_util.hpp) — no
/// compiler plugin, so it runs on the GCC-only toolchain and on
/// never-compiled fixture files alike.
///
/// Phase 1 (collect, across every file of every root):
///   - `field MCPS_GUARDED_BY(mu)` member declarations, remembering
///     the declaring class (and its outermost enclosing class, so
///     nested-struct members are checked in the outer class's
///     methods too),
///   - `fn(...) MCPS_REQUIRES(mu)` member functions whose caller
///     holds the lock,
///   - `MCPS_LOCK_ORDER(outer, inner)` edges of the global declared
///     lock-order DAG.
///
/// Phase 2 (check, per file, with the full declaration set):
///   - every mention of a guarded field inside the declaring class's
///     method bodies must sit lexically inside a
///     lock_guard/unique_lock/scoped_lock scope whose mutex
///     expression ends in the declared guard, or inside a method
///     annotated MCPS_REQUIRES(guard); constructors and destructors
///     are exempt (no sharing before/after the object's lifetime),
///   - every lexically nested acquisition must match a declared
///     MCPS_LOCK_ORDER edge (last-`::`-component matching): the
///     reverse of a declared edge is an order violation, an
///     undeclared pair is flagged so the DAG stays the complete
///     audited record, and re-acquiring a held mutex key is flagged
///     as a self-deadlock,
///   - the declared edge set itself must be acyclic (cycles are
///     reported once, with the full path).
///
/// Known lexical limits (documented in DESIGN.md): mutex identity is
/// the trailing identifier of the lock argument (two same-named
/// members of different classes alias), locks held across a call into
/// another function are invisible (declare the edge manually with
/// MCPS_LOCK_ORDER(outer, inner)), and defer_lock / adopt_lock tags are
/// treated as plain acquisitions.
///
/// Waivers follow the SIM1 convention:
///   // mcps-analyze: allow(CONC1): reason       (same or previous line)
///   // mcps-analyze: allow-file(CONC1): reason  (whole file)

#pragma once

#include <filesystem>
#include <vector>

#include "scan_util.hpp"

namespace mcps::analysis {

/// Two-pass CONC1 scan over all \p roots together (the lock-order DAG
/// and nested-class ownership are cross-file properties, so the roots
/// must be analyzed as one unit). Each root may be a directory (walked
/// with scan_tree's skip rules) or a single file. Missing roots are
/// skipped here; the Analyzer turns them into CFG1 findings.
[[nodiscard]] ScanResult scan_concurrency(
    const std::vector<std::filesystem::path>& roots);

}  // namespace mcps::analysis
