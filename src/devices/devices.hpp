/// \file devices.hpp
/// \brief Umbrella header for the mcps_devices simulated-device library.

#pragma once

#include "capnometer.hpp"      // IWYU pragma: export
#include "device.hpp"          // IWYU pragma: export
#include "gpca_pump.hpp"       // IWYU pragma: export
#include "monitor.hpp"         // IWYU pragma: export
#include "pulse_oximeter.hpp"  // IWYU pragma: export
#include "sensor.hpp"          // IWYU pragma: export
#include "ventilator.hpp"      // IWYU pragma: export
#include "xray.hpp"            // IWYU pragma: export
