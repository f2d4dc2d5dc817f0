#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace prema::fault {

bool FaultProfile::any() const {
  if (link.any() || node.any()) return true;
  for (const auto& [key, lf] : link_overrides) {
    if (lf.any()) return true;
  }
  for (const auto& [p, nf] : node_overrides) {
    if (nf.any()) return true;
  }
  return false;
}

FaultProfile make_fault_profile(const std::string& name) {
  FaultProfile p;
  p.name = name;
  if (name == "none") return p;
  if (name == "lossy1pct") {
    // Uniform light loss: every link drops 1% of messages, duplicates 0.5%,
    // and truncates 0.2% in flight. Exercises retransmit, dedup and the
    // checksum path everywhere without stalling progress.
    p.link.drop_p = 0.01;
    p.link.dup_p = 0.005;
    p.link.corrupt_p = 0.002;
    return p;
  }
  if (name == "burst-reorder") {
    // Aggressive reordering with latency spikes: 15% of messages bypass the
    // FIFO channel and land anywhere in a 2 ms window; 2% take a 5 ms spike.
    // Exercises the resequencing buffers (transport and MOL) hard.
    p.link.reorder_p = 0.15;
    p.link.reorder_window_s = 2e-3;
    p.link.delay_p = 0.02;
    p.link.delay_s = 5e-3;
    p.link.dup_p = 0.002;
    return p;
  }
  if (name == "one-slow-node") {
    // Node 1 is a straggler: 4x compute slowdown plus a recurring 20 ms
    // arrival stall every 250 ms. Its links also drop a little, so the
    // degraded-peer signal (retransmit rate) fires too. Exercises the ILB
    // health view: policies should steer work away from rank 1.
    NodeFaults slow;
    slow.slowdown_factor = 4.0;
    slow.pause_start_s = 0.05;
    slow.pause_len_s = 0.02;
    slow.pause_period_s = 0.25;
    p.node_overrides[1] = slow;
    LinkFaults lossy;
    lossy.drop_p = 0.02;
    p.link_overrides[{kNoProc, 1}] = lossy;  // every link *into* node 1
    p.link_overrides[{1, kNoProc}] = lossy;  // every link *out of* node 1
    return p;
  }
  if (name == "mid-pause") {
    // Elasticity scenario for service mode (EXPERIMENTS.md "Service mode"):
    // node 1 leaves the machine for the middle fifth of a half-second run —
    // a one-shot 100 ms arrival stall starting at 150 ms, plus a 2x compute
    // slowdown so it re-joins as a weaker node. No link faults: the capacity
    // change itself is the event the balancer must route around.
    NodeFaults pause;
    pause.slowdown_factor = 2.0;
    pause.pause_start_s = 0.15;
    pause.pause_len_s = 0.1;
    p.node_overrides[1] = pause;
    return p;
  }
  PREMA_CHECK_MSG(false, "unknown fault profile (try none, lossy1pct, "
                         "burst-reorder, one-slow-node, mid-pause)");
  return p;
}

bool is_fault_profile(const std::string& name) {
  return name == "none" || name == "lossy1pct" || name == "burst-reorder" ||
         name == "one-slow-node" || name == "mid-pause";
}

FaultPlan::FaultPlan(FaultProfile profile, std::uint64_t seed, int nprocs)
    : profile_(std::move(profile)),
      nprocs_(nprocs),
      active_(profile_.any()) {
  PREMA_CHECK_MSG(nprocs > 0, "fault plan needs at least one processor");
  // One independent stream per directed link, all derived from the single
  // fault seed: faults on one link never shift another link's schedule, and
  // the whole schedule is reproducible from (profile, seed).
  util::SplitMix64 sm(seed);
  const auto n = static_cast<std::size_t>(nprocs) * static_cast<std::size_t>(nprocs);
  link_rng_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) link_rng_.emplace_back(sm.next());
}

const LinkFaults& FaultPlan::link(ProcId src, ProcId dst) const {
  if (auto it = profile_.link_overrides.find({src, dst});
      it != profile_.link_overrides.end()) {
    return it->second;
  }
  if (auto it = profile_.link_overrides.find({src, kNoProc});
      it != profile_.link_overrides.end()) {
    return it->second;
  }
  if (auto it = profile_.link_overrides.find({kNoProc, dst});
      it != profile_.link_overrides.end()) {
    return it->second;
  }
  return profile_.link;
}

const NodeFaults& FaultPlan::node(ProcId p) const {
  if (auto it = profile_.node_overrides.find(p);
      it != profile_.node_overrides.end()) {
    return it->second;
  }
  return profile_.node;
}

WireFate FaultPlan::on_send(ProcId src, ProcId dst) {
  PREMA_CHECK_MSG(src >= 0 && src < nprocs_ && dst >= 0 && dst < nprocs_,
                  "fault plan rank out of range");
  const LinkFaults& lf = link(src, dst);
  WireFate f;
  if (!lf.any()) return f;
  util::LockGuard g(mu_);
  util::Rng& r = link_rng_[static_cast<std::size_t>(src) *
                               static_cast<std::size_t>(nprocs_) +
                           static_cast<std::size_t>(dst)];
  // Fixed draw order (drop, dup, corrupt, delay, reorder) so the schedule is
  // a pure function of the link stream.
  if (lf.drop_p > 0.0 && r.chance(lf.drop_p)) {
    f.copies = 0;
    return f;
  }
  if (lf.dup_p > 0.0 && r.chance(lf.dup_p)) f.copies = 2;
  if (lf.corrupt_p > 0.0 && r.chance(lf.corrupt_p)) f.corrupt = true;
  if (lf.delay_p > 0.0 && r.chance(lf.delay_p)) {
    f.extra_delay_s = r.uniform(0.0, lf.delay_s);
  }
  if (lf.reorder_p > 0.0 && r.chance(lf.reorder_p)) {
    f.reorder = true;
    f.reorder_jitter_s[0] = r.uniform(0.0, lf.reorder_window_s);
    f.reorder_jitter_s[1] = r.uniform(0.0, lf.reorder_window_s);
  }
  return f;
}

double FaultPlan::compute_factor(ProcId p) const {
  return node(p).slowdown_factor;
}

double FaultPlan::release_time(ProcId p, double t) const {
  const NodeFaults& nf = node(p);
  if (nf.pause_len_s <= 0.0) return t;
  double start = nf.pause_start_s;
  if (nf.pause_period_s > 0.0 && t > start) {
    const double k = std::floor((t - nf.pause_start_s) / nf.pause_period_s);
    start = nf.pause_start_s + std::max(0.0, k) * nf.pause_period_s;
  }
  if (t >= start && t < start + nf.pause_len_s) return start + nf.pause_len_s;
  return t;
}

bool FaultPlan::node_degraded(ProcId p) const {
  const NodeFaults& nf = node(p);
  return nf.slowdown_factor > 1.5 || nf.pause_len_s > 0.0;
}

}  // namespace prema::fault
