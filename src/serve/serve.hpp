/// \file serve.hpp
/// \brief Umbrella header for the scenario-execution service.

#pragma once

#include "admission.hpp"  // IWYU pragma: export
#include "client.hpp"     // IWYU pragma: export
#include "protocol.hpp"   // IWYU pragma: export
#include "server.hpp"     // IWYU pragma: export
#include "socket_io.hpp"  // IWYU pragma: export
