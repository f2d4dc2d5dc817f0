#pragma once

#include <algorithm>
#include <cmath>

#include "ilb/policy.hpp"

/// \file donation.hpp
/// The two rules the manager-based policies (master, multilist) share: when a
/// processor re-reports its load, and how a donor answers a push command.

namespace prema::ilb {

/// Minimum relative load change before re-reporting to a manager.
inline constexpr double kReportHysteresis = 0.3;

/// True when `load` is worth reporting after `last_reported` (negative until
/// the first report): it moved by at least max(1, kReportHysteresis x the
/// last report).
[[nodiscard]] inline bool report_due(double load, double last_reported) {
  if (last_reported < 0.0) return true;
  const double floor = std::max(1.0, kReportHysteresis * last_reported);
  return std::abs(load - last_reported) >= floor;
}

/// A donor's answer to a push: above the donate threshold, ship migratable
/// objects lightest first to `needy` until the next one would overshoot half
/// the load gap (at least one object moves).
inline void donate_half_gap(PolicyContext& ctx, ProcId needy, double needy_load) {
  const double mine = ctx.local_load();
  if (mine <= ctx.donate_threshold()) return;
  const double quota = (mine - needy_load) / 2.0;
  auto objects = ctx.migratable();
  std::reverse(objects.begin(), objects.end());  // lightest first
  double moved = 0.0;
  for (const auto& obj : objects) {
    if (moved > 0.0 && moved + obj.weight > quota) break;
    ctx.migrate_object(obj.ptr, needy);
    moved += obj.weight;
  }
}

}  // namespace prema::ilb
