/// \file sarif.hpp
/// \brief SARIF 2.1.0 export for analysis reports, plus a dependency-free
/// structural validator for the CI smoke.
///
/// The writer emits one run with the full rule catalog as
/// tool.driver.rules and one result per finding (file-anchored findings
/// carry a physicalLocation). The validator is NOT a schema engine: it
/// parses the JSON with the shared reader (obs/json.hpp) and checks the
/// structural subset CI relies on (version string, non-empty run, unique
/// rule ids, every result's ruleId resolvable, legal level, anchored
/// line numbers >= 1) so the gate needs no Python or third-party JSON
/// dependency.

#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "finding.hpp"

namespace mcps::analysis {

/// Write \p report as a SARIF 2.1.0 log with a single run.
void write_sarif(const AnalysisReport& report, std::ostream& out);

/// Structural SARIF check. Returns true when \p text parses as JSON and
/// satisfies the subset above; otherwise false with a one-line reason in
/// \p error.
[[nodiscard]] bool validate_sarif_minimal(std::string_view text,
                                          std::string& error);

}  // namespace mcps::analysis
