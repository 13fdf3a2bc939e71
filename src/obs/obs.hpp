/// \file obs.hpp
/// \brief Umbrella header for the deterministic observability layer.

#pragma once

#include "event.hpp"          // IWYU pragma: export
#include "event_log.hpp"      // IWYU pragma: export
#include "exporters.hpp"      // IWYU pragma: export
#include "json.hpp"           // IWYU pragma: export
#include "metrics.hpp"        // IWYU pragma: export
#include "shared_metrics.hpp"  // IWYU pragma: export
