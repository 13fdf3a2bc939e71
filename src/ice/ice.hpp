/// \file ice.hpp
/// \brief Umbrella header for the mcps_ice middleware library.

#pragma once

#include "app.hpp"         // IWYU pragma: export
#include "registry.hpp"    // IWYU pragma: export
#include "supervisor.hpp"  // IWYU pragma: export
