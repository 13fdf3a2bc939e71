/// \file ward.hpp
/// \brief Umbrella header for the ward-scale parallel execution engine.
///
/// `mcps::ward` scales the framework from one bedside to a ward: N
/// independent patient scenarios (PCA closed loop, x-ray/ventilator
/// sync, smart-alarm shifts) run concurrently through
/// `sim::parallel_map`, while every individual simulation kernel stays
/// single-threaded and bit-deterministic. Deterministic sharding plus
/// canonical-order reduction make the ward-level report — including a
/// 64-bit fingerprint — provably identical between serial and parallel
/// runs.

#pragma once

#include "ward_config.hpp"
#include "ward_engine.hpp"
#include "ward_scenarios.hpp"
