#include "ilb/policies/master.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace prema::ilb {

using util::ByteReader;
using util::ByteWriter;

namespace {

/// Minimum relative load change before re-reporting to the manager.
constexpr double kReportHysteresis = 0.3;

}  // namespace

void MasterPolicy::init(PolicyContext& ctx) {
  if (ctx.rank() == 0) {
    loads_.assign(static_cast<std::size_t>(ctx.nprocs()), 0.0);
  }
}

void MasterPolicy::on_poll(PolicyContext& ctx) {
  report_if_changed(ctx);
  if (!needwork_sent_ && ctx.local_load() < ctx.low_watermark()) {
    ByteWriter w;
    w.put<double>(ctx.local_load());
    ctx.send_policy(0, kNeedWork, w.take());
    needwork_sent_ = true;
  }
}

void MasterPolicy::report_if_changed(PolicyContext& ctx) {
  const double load = ctx.local_load();
  if (last_reported_ >= 0.0) {
    const double floor = std::max(1.0, kReportHysteresis * last_reported_);
    if (std::abs(load - last_reported_) < floor) return;
  }
  last_reported_ = load;
  ByteWriter w;
  w.put<double>(load);
  ctx.send_policy(0, kReport, w.take());
}

void MasterPolicy::serve_pending(PolicyContext& ctx) {
  while (!pending_.empty()) {
    const ProcId needy = pending_.front();
    // A request goes stale when the asker has found work since (e.g. the
    // eager asks every processor makes at startup, before its own units
    // arrive). Reports keep loads_ fresh enough to spot that.
    if (loads_[static_cast<std::size_t>(needy)] >= ctx.low_watermark()) {
      pending_.pop_front();
      continue;
    }
    const auto donor_it = std::max_element(loads_.begin(), loads_.end());
    const double donor_load = *donor_it;
    if (donor_load <= ctx.donate_threshold()) return;  // nothing to hand out yet
    const auto donor = static_cast<ProcId>(donor_it - loads_.begin());
    if (donor == needy) {
      pending_.pop_front();
      continue;
    }
    pending_.pop_front();
    ByteWriter w;
    w.put<ProcId>(needy);
    w.put<double>(loads_[static_cast<std::size_t>(needy)]);
    ctx.send_policy(donor, kPush, w.take());
    // Optimistic accounting until the donor's next report.
    *donor_it = donor_load / 2.0;
  }
}

void MasterPolicy::on_message(PolicyContext& ctx, ProcId from, PolicyTag tag,
                              ByteReader& body) {
  switch (tag) {
    case kReport: {
      PREMA_CHECK_MSG(ctx.rank() == 0, "load report reached a non-manager");
      loads_[static_cast<std::size_t>(from)] = body.get<double>();
      serve_pending(ctx);
      return;
    }
    case kNeedWork: {
      PREMA_CHECK_MSG(ctx.rank() == 0, "work request reached a non-manager");
      loads_[static_cast<std::size_t>(from)] = body.get<double>();
      if (std::find(pending_.begin(), pending_.end(), from) == pending_.end()) {
        pending_.push_back(from);
      }
      serve_pending(ctx);
      return;
    }
    case kPush: {
      const auto needy = body.get<ProcId>();
      const double needy_load = body.get<double>();
      const double mine = ctx.local_load();
      if (mine <= ctx.donate_threshold()) {
        report_if_changed(ctx);  // correct the manager's stale view
        return;
      }
      const double quota = (mine - needy_load) / 2.0;
      auto objects = ctx.migratable();
      std::reverse(objects.begin(), objects.end());  // lightest first
      double moved = 0.0;
      for (const auto& obj : objects) {
        if (moved > 0.0 && moved + obj.weight > quota) break;
        ctx.migrate_object(obj.ptr, needy);
        moved += obj.weight;
      }
      report_if_changed(ctx);
      return;
    }
    default:
      PREMA_CHECK_MSG(false, "unknown master-policy message tag");
  }
}

void MasterPolicy::on_work_arrived(PolicyContext&) { needwork_sent_ = false; }

}  // namespace prema::ilb
