#pragma once

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "ilb/policy.hpp"

/// \file policy_flag.hpp
/// The check behind every bench binary's policy-name flag, so an unknown
/// name is a usage error while flags are parsed rather than an abort in the
/// middle of a run.

namespace prema::bench {

/// True when `name` is an ilb::make_policy registry name. Otherwise prints
/// "unknown policy: <name> (expected null | work_stealing | ...)" to stderr
/// and returns false; the caller exits with status 2.
inline bool known_policy(const std::string& name) {
  const std::vector<std::string> names = ilb::policy_names();
  if (std::find(names.begin(), names.end(), name) != names.end()) return true;
  std::cerr << "unknown policy: " << name << " (expected";
  for (std::size_t k = 0; k < names.size(); ++k) {
    std::cerr << (k == 0 ? " " : " | ") << names[k];
  }
  std::cerr << ")\n";
  return false;
}

}  // namespace prema::bench
