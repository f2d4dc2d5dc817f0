#include "ilb/policies/work_stealing.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace prema::ilb {

using util::ByteReader;
using util::ByteWriter;

namespace {

/// Fraction of the load gap the donor tries to hand over per grant.
constexpr double kGrantFraction = 0.5;
/// First dormant-retry delay; doubles per dormant round.
constexpr double kDormantBackoffS = 25e-3;
/// Dormant retries before giving up entirely (bounds the message tail when
/// no quiescence detector is running to cut it short).
constexpr int kMaxDormantRounds = 8;

}  // namespace

void WorkStealingPolicy::init(PolicyContext& ctx) {
  // Initial pairing: neighbour by rank-flip, as in paired work stealing.
  partner_ = ctx.rank() ^ 1;
  if (partner_ >= ctx.nprocs()) partner_ = (ctx.rank() + 1) % ctx.nprocs();
  if (ctx.nprocs() == 1) partner_ = kNoProc;
}

void WorkStealingPolicy::on_poll(PolicyContext& ctx) {
  if (passive_ && ctx.now() >= dormant_until_ &&
      dormant_rounds_ <= kMaxDormantRounds &&
      ctx.local_load() < ctx.low_watermark()) {
    // The dormant-retry period elapsed: resume begging at a fresh partner.
    passive_ = false;
    consecutive_denials_ = 0;
  }
  maybe_request(ctx);
}

void WorkStealingPolicy::maybe_request(PolicyContext& ctx) {
  if (partner_ == kNoProc) return;
  if (passive_ || outstanding_) return;
  if (ctx.local_load() >= ctx.low_watermark()) return;
  if (ctx.peer_degraded(partner_)) {
    // Degraded partner: rotate to the next healthy rank instead of begging a
    // slowed/pausing node. If every peer is degraded, keep the current one —
    // a slow grant still beats starving.
    const int n = ctx.nprocs();
    for (int i = 1; i < n; ++i) {
      const auto cand = static_cast<ProcId>((partner_ + i) % n);
      if (cand == ctx.rank()) continue;
      if (!ctx.peer_degraded(cand)) {
        partner_ = cand;
        break;
      }
    }
  }
  ByteWriter w;
  w.put<double>(ctx.local_load());
  ctx.send_policy(partner_, kRequest, w.take());
  outstanding_ = true;
}

void WorkStealingPolicy::handle_request(PolicyContext& ctx, ProcId from,
                                        double their_load) {
  const double mine = ctx.local_load();
  auto deny = [&] { ctx.send_policy(from, kDeny, {}); };
  if (mine <= ctx.donate_threshold() || mine <= their_load) {
    deny();
    return;
  }
  if (ctx.peer_degraded(from)) {
    // Never donate into a degraded node: its pause/slowdown would strand the
    // migrated work behind the fault.
    deny();
    return;
  }
  const double target = kGrantFraction * (mine - their_load);
  auto objects = ctx.migratable();  // heaviest first
  if (objects.empty()) {
    deny();
    return;
  }
  // Accumulate lightest-first so a single huge object does not overshoot the
  // transfer; always grant at least one object.
  std::reverse(objects.begin(), objects.end());
  double granted = 0.0;
  std::uint32_t count = 0;
  for (const auto& obj : objects) {
    if (count > 0 && (granted >= target || count >= params_.max_objects_per_grant)) break;
    // Keep a cushion of pending work for ourselves (paper §4.1).
    if (count > 0 && mine - granted - obj.weight < ctx.low_watermark()) break;
    ctx.migrate_object(obj.ptr, from);
    granted += obj.weight;
    ++count;
  }
  ByteWriter w;
  w.put<std::uint32_t>(count);
  ctx.send_policy(from, kGrant, w.take());
}

void WorkStealingPolicy::on_message(PolicyContext& ctx, ProcId from, PolicyTag tag,
                                    ByteReader& body) {
  switch (tag) {
    case kRequest: {
      const double their_load = body.get<double>();
      handle_request(ctx, from, their_load);
      return;
    }
    case kDeny: {
      outstanding_ = false;
      ++consecutive_denials_;
      // Pick a different partner for whatever comes next.
      if (ctx.nprocs() > 2) {
        ProcId next = partner_;
        while (next == partner_ || next == ctx.rank()) {
          next = static_cast<ProcId>(ctx.rng().below(
              static_cast<std::uint64_t>(ctx.nprocs())));
        }
        partner_ = next;
      }
      if (consecutive_denials_ >= kPassiveAfterDenials) {
        // Everyone we asked was dry: go dormant, but wake up occasionally —
        // loads change. Dormant rounds back off geometrically and are capped
        // so a finished machine eventually goes fully quiet.
        passive_ = true;
        consecutive_denials_ = 0;
        ++stats_.went_passive;
        ++dormant_rounds_;
        if (dormant_rounds_ <= kMaxDormantRounds) {
          const double delay =
              kDormantBackoffS * static_cast<double>(1 << std::min(dormant_rounds_, 10));
          dormant_until_ = ctx.now() + delay;
          ctx.request_poll_after(delay);
        } else {
          dormant_until_ = 1e300;  // out of retries: only new work wakes us
        }
        return;
      }
      // Denial is cheap: retry the new partner immediately (paper §4).
      maybe_request(ctx);
      return;
    }
    case kGrant: {
      // Channels are FIFO, so the granted objects were delivered before this
      // message: nothing remains in flight, and if the arrivals were not
      // enough the next poll may request again immediately.
      outstanding_ = false;
      consecutive_denials_ = 0;
      dormant_rounds_ = 0;
      (void)body.get<std::uint32_t>();
      return;
    }
    default:
      PREMA_CHECK_MSG(false, "unknown work-stealing message tag");
  }
}

void WorkStealingPolicy::on_work_arrived(PolicyContext&) {
  passive_ = false;
  consecutive_denials_ = 0;
  dormant_rounds_ = 0;
  dormant_until_ = 0.0;
}

}  // namespace prema::ilb
