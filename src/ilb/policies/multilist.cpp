#include "ilb/policies/multilist.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace prema::ilb {

using util::ByteReader;
using util::ByteWriter;

namespace {

/// Minimum relative load change before re-reporting to the leader.
constexpr double kReportHysteresis = 0.3;

}  // namespace

void MultiListPolicy::init(PolicyContext& ctx) {
  // Groups of ceil(sqrt(nprocs)) consecutive ranks (at least 2), each led
  // by its lowest rank.
  const int group_size =
      std::max(2, static_cast<int>(std::ceil(std::sqrt(ctx.nprocs()))));
  leader_ = (ctx.rank() / group_size) * group_size;
}

void MultiListPolicy::report_if_changed(PolicyContext& ctx) {
  const double load = ctx.local_load();
  if (last_reported_ >= 0.0) {
    const double floor = std::max(1.0, kReportHysteresis * last_reported_);
    if (std::abs(load - last_reported_) < floor) return;
  }
  last_reported_ = load;
  if (ctx.rank() == leader_) {
    member_load_[ctx.rank()] = load;
    leader_serve(ctx);
    leader_report_group(ctx);
    return;
  }
  ByteWriter w;
  w.put<double>(load);
  ctx.send_policy(leader_, kReport, w.take());
}

void MultiListPolicy::on_poll(PolicyContext& ctx) {
  report_if_changed(ctx);
  if (!asked_ && ctx.local_load() < ctx.low_watermark()) {
    asked_ = true;
    if (ctx.rank() == leader_) {
      member_load_[ctx.rank()] = ctx.local_load();
      if (std::find(pending_.begin(), pending_.end(), ctx.rank()) == pending_.end()) {
        pending_.push_back(ctx.rank());
      }
      leader_serve(ctx);
    } else {
      ByteWriter w;
      w.put<double>(ctx.local_load());
      ctx.send_policy(leader_, kAsk, w.take());
    }
  }
}

void MultiListPolicy::leader_serve(PolicyContext& ctx) {
  while (!pending_.empty()) {
    const ProcId needy = pending_.front();
    // Drop stale requests (e.g. the eager asks at startup, before the
    // asker's own work arrived) based on the list's current view.
    if (member_load_.count(needy) != 0 &&
        member_load_.at(needy) >= ctx.low_watermark()) {
      pending_.pop_front();
      continue;
    }
    // Heaviest member of this group's list.
    ProcId donor = kNoProc;
    double donor_load = ctx.donate_threshold();
    for (const auto& [p, l] : member_load_) {
      if (l > donor_load) {
        donor_load = l;
        donor = p;
      }
    }
    if (donor == needy) {
      pending_.pop_front();
      continue;
    }
    if (donor == kNoProc) {
      // Nothing movable inside the group: escalate once to the coordinator.
      if (!asked_global_ && leader_ != 0) {
        asked_global_ = true;
        ByteWriter w;
        w.put<ProcId>(needy);
        ctx.send_policy(0, kAskGlobal, w.take());
      }
      return;
    }
    pending_.pop_front();
    const double needy_load = member_load_.count(needy) ? member_load_[needy] : 0.0;
    if (donor == ctx.rank()) {
      donate_to(ctx, needy, needy_load);
    } else {
      ByteWriter w;
      w.put<ProcId>(needy);
      w.put<double>(needy_load);
      ctx.send_policy(donor, kPush, w.take());
    }
    member_load_[donor] = donor_load / 2.0;  // optimistic, until next report
  }
}

void MultiListPolicy::leader_report_group(PolicyContext& ctx) {
  if (ctx.rank() != leader_) return;
  double total = 0.0;
  for (const auto& [p, l] : member_load_) total += l;
  const double floor = std::max(1.0, kReportHysteresis *
                                         std::max(0.0, last_group_reported_));
  if (last_group_reported_ >= 0.0 && std::abs(total - last_group_reported_) < floor) {
    return;
  }
  last_group_reported_ = total;
  if (leader_ == 0) {
    // Rank 0 is both a group leader and the coordinator: record our own
    // group's load directly and try to serve any starved groups.
    group_load_[0] = total;
    coordinator_serve(ctx);
    return;
  }
  ByteWriter w;
  w.put<double>(total);
  ctx.send_policy(0, kGroupReport, w.take());
}

void MultiListPolicy::coordinator_serve(PolicyContext& ctx) {
  while (!pending_groups_.empty()) {
    ProcId donor_leader = kNoProc;
    double best = 0.0;
    for (const auto& [l, total] : group_load_) {
      if (total > best) {
        best = total;
        donor_leader = l;
      }
    }
    const ProcId needy_leader = pending_groups_.front();
    if (donor_leader == kNoProc || donor_leader == needy_leader) return;
    pending_groups_.pop_front();
    if (donor_leader == 0) {
      // We are the donor group's leader ourselves.
      ByteWriter w;
      w.put<ProcId>(needy_leader);
      util::ByteReader r(w.bytes());
      on_message(ctx, 0, kPushGroup, r);
    } else {
      ByteWriter w;
      w.put<ProcId>(needy_leader);
      ctx.send_policy(donor_leader, kPushGroup, w.take());
    }
    group_load_[donor_leader] = best / 2.0;
  }
}

void MultiListPolicy::donate_to(PolicyContext& ctx, ProcId needy, double needy_load) {
  const double mine = ctx.local_load();
  if (mine <= ctx.donate_threshold()) {
    report_if_changed(ctx);
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
}

void MultiListPolicy::on_message(PolicyContext& ctx, ProcId from, PolicyTag tag,
                                 ByteReader& body) {
  switch (tag) {
    case kReport: {
      member_load_[from] = body.get<double>();
      leader_serve(ctx);
      leader_report_group(ctx);
      return;
    }
    case kAsk: {
      member_load_[from] = body.get<double>();
      if (std::find(pending_.begin(), pending_.end(), from) == pending_.end()) {
        pending_.push_back(from);
      }
      leader_serve(ctx);
      return;
    }
    case kPush: {
      const auto needy = body.get<ProcId>();
      const double needy_load = body.get<double>();
      donate_to(ctx, needy, needy_load);
      return;
    }
    case kGroupReport: {
      PREMA_CHECK_MSG(ctx.rank() == 0, "group report reached a non-coordinator");
      group_load_[from] = body.get<double>();
      coordinator_serve(ctx);
      return;
    }
    case kAskGlobal: {
      PREMA_CHECK_MSG(ctx.rank() == 0, "global ask reached a non-coordinator");
      const auto needy = body.get<ProcId>();
      (void)needy;  // the transfer lands at the asking group's leader
      if (std::find(pending_groups_.begin(), pending_groups_.end(), from) ==
          pending_groups_.end()) {
        pending_groups_.push_back(from);
      }
      coordinator_serve(ctx);
      return;
    }
    case kPushGroup: {
      // We are the heaviest group's leader: ship from our heaviest member to
      // the starved group's leader, whose list redistributes it locally.
      const auto needy_leader = body.get<ProcId>();
      ProcId donor = kNoProc;
      double donor_load = ctx.donate_threshold();
      for (const auto& [p, l] : member_load_) {
        if (l > donor_load) {
          donor_load = l;
          donor = p;
        }
      }
      if (donor == ctx.rank() || (donor == kNoProc && ctx.local_load() > ctx.donate_threshold())) {
        donate_to(ctx, needy_leader, 0.0);
      } else if (donor != kNoProc) {
        ByteWriter w;
        w.put<ProcId>(needy_leader);
        w.put<double>(0.0);
        ctx.send_policy(donor, kPush, w.take());
        member_load_[donor] = donor_load / 2.0;
      }
      return;
    }
    default:
      PREMA_CHECK_MSG(false, "unknown multilist message tag");
  }
}

void MultiListPolicy::on_work_arrived(PolicyContext&) {
  asked_ = false;
  asked_global_ = false;
}

}  // namespace prema::ilb
