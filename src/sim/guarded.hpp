/// \file guarded.hpp
/// \brief Lock-discipline annotations checked statically by CONC1
/// (src/analysis/conc_lint.hpp, `mcps analyze --scan-conc`).
///
/// The macros expand to nothing: they are machine-readable
/// documentation, not behavior. The CONC1 pass reads them lexically
/// from comment-stripped source and checks three properties:
///
///   MCPS_GUARDED_BY(mu)
///     Trails a data-member declaration. Every mention of the member
///     inside the declaring class's method bodies (constructors and
///     destructors excepted — they run before/after sharing) must be
///     lexically inside a std::lock_guard / std::unique_lock /
///     std::scoped_lock scope whose mutex expression ends in `mu`, or
///     inside a method annotated MCPS_REQUIRES(mu).
///
///   MCPS_REQUIRES(mu)
///     Trails a member-function declaration: the caller holds `mu`
///     for the whole call ("_locked" helper idiom).
///
///   MCPS_LOCK_ORDER(outer, inner)
///     File-scope declaration of one edge in the global lock-order
///     DAG: `outer` may be held while acquiring `inner`. Every
///     lexically nested acquisition must match a declared edge
///     (matching on the last `::` component of each side); acquiring
///     against a declared edge is an order violation, and the declared
///     edge set itself must stay acyclic. Edges that are invisible to
///     a lexical scan (a lock held across a call into another class)
///     are still declared here so the DAG stays the single audited
///     record of permitted nesting.
///
/// Findings are waived like every source rule:
///   // mcps-analyze: allow(CONC1): reason        (this or next line)
///   // mcps-analyze: allow-file(CONC1): reason   (whole file)
///
/// The annotations mirror clang's Thread Safety Analysis attributes
/// but stay plain macros so the GCC-only toolchain compiles them away
/// and the checker needs no compiler plugin.

#pragma once

#define MCPS_GUARDED_BY(mu)
#define MCPS_REQUIRES(mu)
#define MCPS_LOCK_ORDER(outer, inner) static_assert(true, "lock-order edge")
