/// \file core.hpp
/// \brief Umbrella header for the mcps_core library — the paper's
/// primary-contribution layer (closed-loop safety apps, smart alarms,
/// scenario harnesses).

#pragma once

#include "nurse_response.hpp"  // IWYU pragma: export
#include "pca_interlock.hpp"   // IWYU pragma: export
#include "pca_scenario.hpp"   // IWYU pragma: export
#include "smart_alarm.hpp"    // IWYU pragma: export
#include "xray_scenario.hpp"  // IWYU pragma: export
#include "xray_vent_app.hpp"  // IWYU pragma: export
