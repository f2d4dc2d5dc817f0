#include "ilb/policies/gradient.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace prema::ilb {

using util::ByteReader;
using util::ByteWriter;

namespace {

/// Fraction of the surplus above the donate threshold moved per transfer.
constexpr double kTransferFraction = 0.5;
/// Minimum spacing between a node's proximity announcements (damps the
/// distance-vector count-up storms; deferred changes coalesce).
constexpr double kAnnounceIntervalS = 20e-3;

}  // namespace

std::uint32_t GradientPolicy::infinity(const PolicyContext& ctx) const {
  return static_cast<std::uint32_t>(ctx.nprocs());
}

void GradientPolicy::init(PolicyContext& ctx) {
  const int p = ctx.nprocs();
  const ProcId me = ctx.rank();
  if (p == 1) return;
  neighbors_.push_back((me + 1) % p);
  if (p > 2) neighbors_.push_back((me + p - 1) % p);
  proximity_ = infinity(ctx);
}

void GradientPolicy::refresh(PolicyContext& ctx) {
  if (neighbors_.empty()) return;
  std::uint32_t next;
  if (ctx.local_load() < ctx.low_watermark()) {
    next = 0;
  } else {
    std::uint32_t best = infinity(ctx);
    for (ProcId n : neighbors_) {
      auto it = neighbor_prox_.find(n);
      const std::uint32_t p = it == neighbor_prox_.end() ? infinity(ctx) : it->second;
      best = std::min(best, p);
    }
    next = std::min(infinity(ctx), best + 1);
  }
  if (next == proximity_ && announced_once_) return;
  proximity_ = next;  // act on the fresh value locally right away
  // Announcements are throttled per node: an un-damped gradient surface
  // count-up floods the machine with O(P^2) messages per load change (the
  // distance-vector pathology). Deferred changes coalesce into the next
  // wakeup's announcement.
  const double now = ctx.now();
  if (announced_once_ && now - last_announce_ < kAnnounceIntervalS) {
    ctx.request_poll_after(kAnnounceIntervalS - (now - last_announce_));
    return;
  }
  announced_once_ = true;
  last_announce_ = now;
  ByteWriter w;
  w.put<std::uint32_t>(proximity_);
  for (ProcId n : neighbors_) ctx.send_policy(n, kProximity, w.bytes());
}

void GradientPolicy::maybe_push(PolicyContext& ctx) {
  if (neighbors_.empty()) return;
  const double mine = ctx.local_load();
  if (mine <= ctx.donate_threshold()) return;
  // Downhill neighbour: strictly smaller proximity than ours.
  ProcId best_n = kNoProc;
  std::uint32_t best_p = proximity_;
  for (ProcId n : neighbors_) {
    auto it = neighbor_prox_.find(n);
    if (it == neighbor_prox_.end()) continue;
    if (it->second < best_p) {
      best_p = it->second;
      best_n = n;
    }
  }
  if (best_n == kNoProc) return;
  const double quota = kTransferFraction * (mine - ctx.donate_threshold());
  auto objects = ctx.migratable();
  std::reverse(objects.begin(), objects.end());  // lightest first
  double moved = 0.0;
  for (const auto& obj : objects) {
    if (moved > 0.0 && moved + obj.weight > quota) break;
    if (obj.weight > quota && moved > 0.0) break;
    ctx.migrate_object(obj.ptr, best_n);
    moved += obj.weight;
    if (moved >= quota) break;
  }
  // The receiver is now less starved than its proximity suggested; bump our
  // cached value so we do not flood it before its next announcement.
  if (moved > 0.0) neighbor_prox_[best_n] = proximity_;
}

void GradientPolicy::on_poll(PolicyContext& ctx) {
  refresh(ctx);
  maybe_push(ctx);
}

void GradientPolicy::on_message(PolicyContext& ctx, ProcId from, PolicyTag tag,
                                ByteReader& body) {
  PREMA_CHECK_MSG(tag == kProximity, "unknown gradient message tag");
  neighbor_prox_[from] = body.get<std::uint32_t>();
  refresh(ctx);
  maybe_push(ctx);
}

void GradientPolicy::on_work_arrived(PolicyContext& ctx) {
  refresh(ctx);
}

}  // namespace prema::ilb
