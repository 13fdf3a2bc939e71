/// \file ref_slice.hpp
/// \brief The frozen reference slice used to measure host contention.
///
/// A small heap-ordered discrete-event loop over a
/// std::map<std::string, double> of signals with std::function dispatch
/// and a topic string built per event: the same mix of branchy dispatch,
/// tree lookups and small allocations the scenario kernel spends its time
/// on. It calls no mcps code, so every commit runs identical slice code
/// and a change to the simulator can never move the slice. Do not edit
/// it: a different slice redefines every normalized number.

#pragma once

#include <cstdint>

namespace perfbench {

/// Events one slice sub-run dispatches.
inline constexpr std::uint64_t kSliceEvents = 60000;

/// Slice time, in ms, that defines a host factor of 1.0 (a quiet phase of
/// a 4-vCPU x86-64 host). Changing it rescales every normalized time.
inline constexpr double kSliceNominalMs = 10.0;

/// Run one sub-run; returns a checksum the caller must consume.
[[nodiscard]] double run_reference_slice(std::uint64_t events);

}  // namespace perfbench
