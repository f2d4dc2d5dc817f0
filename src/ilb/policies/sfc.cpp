#include "ilb/policies/sfc.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace prema::ilb {

using util::ByteReader;
using util::ByteWriter;

namespace {

/// Histogram report cadence per processor (also the poll re-arm period).
constexpr double kReportIntervalS = 10e-3;
/// Recut only when max-rank-load / mean-rank-load exceeds this.
constexpr double kRecutThreshold = 1.05;
/// ...and only when the proposed cuts beat the current placement by a
/// real margin (proposed imbalance < factor * current imbalance), so
/// bucket-quantization wobble can't keep re-shipping boundary buckets.
constexpr double kImprovementFactor = 0.95;
/// Minimum spacing between recuts. Shipped objects are invisible to load
/// reports while in transit, so deciding again before the previous wave
/// lands would chase a phantom imbalance of its own making.
constexpr double kMinRecutIntervalS = 100e-3;
/// Stop re-arming the poll timer after this many consecutive reports with
/// zero local load (lets run-to-quiescence workloads terminate); any new
/// work re-arms.
constexpr int kMaxIdleReports = 3;

using Bin = SfcPolicy::Bin;

/// Sort `hist` by bucket and fold equal buckets into one bin. Each folded
/// load starts at 0.0 and adds its bins in input order (the sort is stable),
/// so a bucket's sum is the same double however the input was ordered
/// across buckets.
void sort_and_merge(std::vector<Bin>& hist) {
  std::stable_sort(hist.begin(), hist.end(), [](const Bin& a, const Bin& b) {
    return a.bucket < b.bucket;
  });
  std::size_t out = 0;
  for (std::size_t i = 0; i < hist.size();) {
    const std::uint32_t bucket = hist[i].bucket;
    double load = 0.0;
    for (; i < hist.size() && hist[i].bucket == bucket; ++i) load += hist[i].load;
    hist[out++] = {bucket, load};
  }
  hist.resize(out);
}

}  // namespace

void SfcPolicy::init(PolicyContext& ctx) {
  next_report_ = ctx.now();
  next_recut_ = ctx.now();
  idle_reports_ = 0;
}

std::uint32_t SfcPolicy::bucket_of(PolicyContext& ctx,
                                   const mol::MobilePtr& ptr) {
  if (const auto c = ctx.object_coords(ptr)) {
    // Coordinates may be re-registered (Mol::set_coords overwrites), so the
    // cached bucket holds only while they compare equal. (-0.0 == 0.0, and
    // both map to cell 0.)
    auto [it, inserted] = buckets_.try_emplace(ptr);
    CachedBucket& e = it->second;
    if (inserted || e.coords.x != c->x || e.coords.y != c->y ||
        e.coords.z != c->z) {
      e.coords = *c;
      e.bucket = static_cast<std::uint32_t>(
          hilbert_key(*c) >> (3 * kSfcBitsPerDim - kBucketBits));
    }
    return e.bucket;
  }
  // No coordinates registered: hash the mobile pointer to a stable bucket so
  // the object has a fixed place on the curve (Knuth multiplicative hash).
  const std::uint64_t h =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ptr.home)) * 2654435761u) ^
      (static_cast<std::uint64_t>(ptr.index) * 2246822519u);
  return static_cast<std::uint32_t>(h % kBuckets);
}

void SfcPolicy::on_poll(PolicyContext& ctx) {
  const double t = ctx.now();
  if (t >= next_report_) {
    next_report_ = t + kReportIntervalS;
    report(ctx);
    if (ctx.rank() == 0) maybe_recut(ctx);
  }
  // Keep the cadence alive while the machine has work; go quiet after a few
  // idle reports so run-to-quiescence workloads can terminate.
  if (idle_reports_ < kMaxIdleReports) {
    ctx.request_poll_after(kReportIntervalS);
  }
}

void SfcPolicy::on_work_arrived(PolicyContext& ctx) {
  if (idle_reports_ >= kMaxIdleReports) {
    idle_reports_ = 0;
    ctx.request_poll_after(0.0);
  }
}

void SfcPolicy::report(PolicyContext& ctx) {
  std::vector<Bin> hist;
  double total = 0.0;
  for (const auto& obj : ctx.migratable()) {
    hist.push_back({bucket_of(ctx, obj.ptr), obj.weight});
    total += obj.weight;
  }
  sort_and_merge(hist);
  if (total <= 0.0 && ctx.local_load() <= 0.0) {
    ++idle_reports_;
  } else {
    idle_reports_ = 0;
  }
  ++stats_.reports_sent;
  if (ctx.rank() == 0) {
    store_report(ctx, 0, std::move(hist));
    return;  // the coordinator's own report never touches the wire
  }
  // wire:ilb.sfc-hist pack w
  ByteWriter w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(hist.size()));
  for (const auto& [bucket, load] : hist) {
    w.put<std::uint32_t>(bucket);
    w.put<double>(load);
  }
  ctx.send_policy(0, kHist, w.take());
}

void SfcPolicy::store_report(PolicyContext& ctx, ProcId rank,
                             std::vector<Bin> hist) {
  PREMA_CHECK_MSG(rank >= 0 && rank < ctx.nprocs(), "sfc report from no rank");
  if (reports_.empty()) reports_.resize(static_cast<std::size_t>(ctx.nprocs()));
  RankReport& r = reports_[static_cast<std::size_t>(rank)];
  r.load = 0.0;
  for (const Bin& bin : hist) r.load += bin.load;
  r.hist = std::move(hist);
  r.fresh = true;
}

void SfcPolicy::maybe_recut(PolicyContext& ctx) {
  // Wait until every rank has reported at least once since the last cut:
  // recutting from a partial picture migrates against stale load. Also let
  // the previous wave of shipments land first (kMinRecutIntervalS) — an
  // object in transit is on nobody's report, so back-to-back decisions
  // would chase the hole the last decision made.
  if (ctx.now() < next_recut_) return;
  double total = 0.0;
  double current_max = 0.0;  // heaviest rank under the *current* placement
  for (const RankReport& r : reports_) {
    if (!r.fresh) return;
    total += r.load;
    current_max = std::max(current_max, r.load);
  }
  if (total <= 0.0) return;  // machine is draining; nothing to cut
  const int nprocs = ctx.nprocs();
  const double share = total / nprocs;
  // Recut only when the *current* placement is out of balance AND the
  // proposed cuts strictly improve it. Gating on the proposal alone
  // thrashes: proposed cuts equalize by construction, so once bucket
  // quantization alone exceeds the threshold (small shares near the drain
  // tail) every report round would re-ship the boundary buckets. This check
  // needs only the per-rank loads, so it comes before the merge.
  const double current_imbalance = current_max / share;
  if (current_imbalance <= kRecutThreshold) return;

  // Merge the histograms: per bucket, the ranks' loads summed in rank order.
  std::vector<Bin> merged;
  for (const RankReport& r : reports_) {
    merged.insert(merged.end(), r.hist.begin(), r.hist.end());
  }
  sort_and_merge(merged);

  // Equal-load cuts by prefix sum along the curve: rank p's segment starts
  // where the running load first reaches p * total / nprocs. A segment the
  // walk never reaches (the last bucket holds several shares) starts past
  // the last bucket and owns nothing, which keeps the table ascending.
  std::vector<std::uint32_t> start(static_cast<std::size_t>(nprocs), kBuckets);
  start[0] = 0;
  std::vector<double> seg_load(static_cast<std::size_t>(nprocs), 0.0);
  int seg = 0;
  double prefix = 0.0;
  for (const auto& [bucket, load] : merged) {
    // Advance to the segment this bucket's prefix midpoint belongs to; a
    // bucket is never split, so segments are contiguous bucket ranges.
    while (seg + 1 < nprocs && prefix + load / 2.0 >= (seg + 1) * share) {
      ++seg;
      start[static_cast<std::size_t>(seg)] = bucket;
    }
    seg_load[static_cast<std::size_t>(seg)] += load;
    prefix += load;
  }
  const double max_seg = *std::max_element(seg_load.begin(), seg_load.end());
  const double imbalance = max_seg / share;
  // Require a real improvement margin, not just any improvement.
  if (imbalance >= kImprovementFactor * current_imbalance) return;
  next_recut_ = ctx.now() + kMinRecutIntervalS;

  ++stats_.cuts_broadcast;
  ctx.trace_sfc_cut(static_cast<std::size_t>(nprocs), imbalance);
  // wire:ilb.sfc-cuts pack w
  ByteWriter w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(nprocs));
  for (int p = 0; p < nprocs; ++p) {
    w.put<std::uint32_t>(start[static_cast<std::size_t>(p)]);
  }
  const auto body = w.take();
  for (ProcId p = 1; p < nprocs; ++p) ctx.send_policy(p, kCuts, body);
  start_ = std::move(start);
  apply_cuts(ctx);
  // Demand a fresh round of reports before the next recut.
  for (RankReport& r : reports_) r.fresh = false;
}

ProcId SfcPolicy::owner_of(std::uint32_t bucket) const {
  // start_ is ascending; the owner is the last rank whose segment starts at
  // or below the bucket.
  const auto it = std::upper_bound(start_.begin(), start_.end(), bucket);
  return static_cast<ProcId>(it - start_.begin()) - 1;
}

void SfcPolicy::apply_cuts(PolicyContext& ctx) {
  if (start_.empty()) return;
  const ProcId me = ctx.rank();
  for (const auto& obj : ctx.migratable()) {
    const ProcId owner = owner_of(bucket_of(ctx, obj.ptr));
    if (owner == me || ctx.peer_degraded(owner)) continue;
    ctx.migrate_object(obj.ptr, owner);
    buckets_.erase(obj.ptr);
  }
}

void SfcPolicy::on_message(PolicyContext& ctx, ProcId from, PolicyTag tag,
                           ByteReader& body) {
  if (tag == kHist) {
    if (ctx.rank() != 0) return;  // stale report after a coordinator change
    // wire:ilb.sfc-hist unpack body
    std::vector<Bin> hist;
    const auto n = body.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto bucket = body.get<std::uint32_t>();
      const auto load = body.get<double>();
      hist.push_back({bucket, load});
    }
    sort_and_merge(hist);  // senders send it sorted; do not rely on it
    store_report(ctx, from, std::move(hist));
    maybe_recut(ctx);
    return;
  }
  if (tag == kCuts) {
    // wire:ilb.sfc-cuts unpack body
    const auto n = body.get<std::uint32_t>();
    std::vector<std::uint32_t> start(n, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      start[i] = body.get<std::uint32_t>();
    }
    start_ = std::move(start);
    apply_cuts(ctx);
    return;
  }
  // Foreign tag: a stray in-flight message from a pre-switch policy
  // (service-mode switch schedules). Deliberately ignored.
}

}  // namespace prema::ilb
