#include "ilb/policies/diffusion.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace prema::ilb {

using util::ByteReader;
using util::ByteWriter;

namespace {

/// Fraction of the load gap pushed per exchange (classic alpha).
constexpr double kAlpha = 0.5;
/// Minimum relative load change before re-announcing to neighbours.
constexpr double kAnnounceHysteresis = 0.25;
/// Minimum absolute load gap worth acting on.
constexpr double kMinGap = 1.0;

bool is_power_of_two(int n) { return n > 0 && (n & (n - 1)) == 0; }

}  // namespace

void DiffusionPolicy::init(PolicyContext& ctx) {
  const int p = ctx.nprocs();
  const ProcId me = ctx.rank();
  if (p == 1) return;
  if (is_power_of_two(p)) {
    for (int bit = 1; bit < p; bit <<= 1) neighbors_.push_back(me ^ bit);
  } else {
    neighbors_.push_back((me + 1) % p);
    if (p > 2) neighbors_.push_back((me + p - 1) % p);
  }
}

void DiffusionPolicy::on_poll(PolicyContext& ctx) {
  announce_if_changed(ctx);
  for (ProcId n : neighbors_) push_towards(ctx, n);
}

void DiffusionPolicy::announce_if_changed(PolicyContext& ctx) {
  const double load = ctx.local_load();
  if (announced_) {
    const double delta = std::abs(load - last_announced_);
    const double floor = std::max(kMinGap, kAnnounceHysteresis * last_announced_);
    if (delta < floor) return;
  }
  announced_ = true;
  last_announced_ = load;
  ByteWriter w;
  w.put<double>(load);
  for (ProcId n : neighbors_) ctx.send_policy(n, kLoad, w.bytes());
}

void DiffusionPolicy::push_towards(PolicyContext& ctx, ProcId neighbor) {
  auto it = neighbor_load_.find(neighbor);
  if (it == neighbor_load_.end()) return;  // never heard from them
  const double mine = ctx.local_load();
  const double theirs = it->second;
  const double gap = mine - theirs;
  if (gap < 2 * kMinGap || mine <= ctx.donate_threshold()) return;
  const double quota = kAlpha * gap / 2.0;
  auto objects = ctx.migratable();
  std::reverse(objects.begin(), objects.end());  // lightest first
  double moved = 0.0;
  for (const auto& obj : objects) {
    if (moved + obj.weight > quota && moved > 0.0) break;
    // Never move more than half the gap: shifting weight w changes the gap
    // by 2w, so anything past gap/2 *inverts* the imbalance and the object
    // ping-pongs between the two neighbours forever (each sees the other as
    // overloaded in turn). Coarse objects that would overshoot stay put.
    if (2.0 * (moved + obj.weight) > gap) break;
    ctx.migrate_object(obj.ptr, neighbor);
    moved += obj.weight;
  }
  if (moved > 0.0) {
    // Optimistically account the transfer so we do not re-push before the
    // neighbour's next announcement.
    it->second += moved;
  }
}

void DiffusionPolicy::on_message(PolicyContext& ctx, ProcId from, PolicyTag tag,
                                 ByteReader& body) {
  PREMA_CHECK_MSG(tag == kLoad, "unknown diffusion message tag");
  neighbor_load_[from] = body.get<double>();
  push_towards(ctx, from);
}

}  // namespace prema::ilb
