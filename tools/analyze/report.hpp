#pragma once

#include <string>

#include "analyze/passes.hpp"

/// \file report.hpp
/// Finding output: SARIF 2.1.0 export for code-scanning UIs / CI artifacts.

namespace prema::analyze {

/// SARIF 2.1.0 document for `findings`.
std::string render_sarif(const Findings& findings);

}  // namespace prema::analyze
