/// \file analysis.hpp
/// \brief Umbrella header for the mcps_analysis model-level safety
/// linter (rules TA1–TA5, ICE1, AS1, SIM1, CONC1, CFG1; see finding.hpp
/// for the catalog and tools/drivers/analyze_driver.cpp for the CLI).

#pragma once

#include "analyzer.hpp"        // IWYU pragma: export
#include "assurance_lint.hpp"  // IWYU pragma: export
#include "conc_lint.hpp"       // IWYU pragma: export
#include "deadline_lint.hpp"   // IWYU pragma: export
#include "finding.hpp"         // IWYU pragma: export
#include "ice_lint.hpp"        // IWYU pragma: export
#include "sarif.hpp"           // IWYU pragma: export
#include "scenario_scan.hpp"   // IWYU pragma: export
#include "source_scan.hpp"     // IWYU pragma: export
#include "ta_lint.hpp"         // IWYU pragma: export
