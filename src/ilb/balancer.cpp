#include "ilb/balancer.hpp"

#include <utility>

#include "support/assert.hpp"

namespace prema::ilb {

using util::ByteReader;
using util::ByteWriter;

namespace {

/// CPU cost charged (Scheduling) per policy decision event.
constexpr double kDecisionCostS = 5e-6;
/// Period of the framework's gossip broadcast (topology policies only): every
/// interval each processor sends its GossipSummary to all peers, so a remote
/// digest is at most one interval plus one message latency stale.
constexpr double kGossipIntervalS = 50e-3;

}  // namespace

Balancer::Balancer(dmcs::Node& node, mol::Mol& mol, Scheduler& sched,
                   std::unique_ptr<Policy> policy, BalancerConfig cfg,
                   dmcs::HandlerId policy_wire_h)
    : node_(node),
      mol_(mol),
      sched_(sched),
      policy_(std::move(policy)),
      cfg_(cfg),
      wire_h_(policy_wire_h) {
  PREMA_CHECK_MSG(policy_ != nullptr, "balancer needs a policy (use \"null\")");
}

void Balancer::init() { policy_->init(*this); }

void Balancer::poll() {
  if (stopped_) return;
  ++stats_.polls;
  charge_seconds(kDecisionCostS);
  maybe_gossip();
  policy_->on_poll(*this);
  if (auto* ts = node_.trace(); ts && migrations_this_round_ > 0) {
    ts->sample_migrations_round(static_cast<double>(migrations_this_round_));
    migrations_this_round_ = 0;
  }
}

void Balancer::on_wire(dmcs::Message&& msg) {
  ByteReader r(msg.payload);
  const auto tag = r.get<PolicyTag>();
  if (tag == 0) {
    // Self-addressed polling-thread tick (see unit_started): behave exactly
    // like a poll point, which is what the polling thread does on wakeup.
    self_tick_armed_ = false;
    poll();
    return;
  }
  if (tag == kGossipTag) {
    // Framework gossip channel: decode the peer's digest, retain the latest
    // per sender, and notify the policy. Absorbed silently when the active
    // policy is scalar-only (possible around a mid-run policy switch).
    // wire:ilb.gossip unpack r
    GossipSummary s;
    s.proc = msg.src;
    s.t = r.get<double>();
    s.load = r.get<double>();
    s.objects = r.get<std::uint64_t>();
    s.centroid.x = r.get<double>();
    s.centroid.y = r.get<double>();
    s.centroid.z = r.get<double>();
    if (!policy_->wants_topology()) return;
    charge_seconds(kDecisionCostS);
    gossip_[s.proc] = s;
    policy_->on_gossip(*this, s);
    return;
  }
  if (tag >= kTopologyTagBase && !policy_->wants_topology()) {
    // A topology policy's message reaching a scalar policy: around a mid-run
    // switch, ranks swap on their own clocks, so an early-switching rank's
    // first sfc report can land here before this rank switches. Absorb it
    // framework-side — scalar policies keep their fail-fast abort for junk
    // inside their own tag range.
    return;
  }
  charge_seconds(kDecisionCostS);
  if (auto* ts = node_.trace()) {
    ts->record(trace::EventKind::kPolicyWire, node_.now(), msg.src, tag);
  }
  policy_->on_message(*this, msg.src, tag, r);
}

void Balancer::work_arrived() { policy_->on_work_arrived(*this); }

void Balancer::unit_started() {
  // Paper §4.2: with preemptive message processing, "load balancing begins
  // when the underloaded processor begins work on its last local work unit".
  // Arm the polling thread by sending ourselves a system message; it will be
  // handled at the next polling tick (implicit mode) or — degenerating
  // gracefully — at the next poll operation (explicit mode).
  if (local_load() >= cfg_.low_watermark) return;
  request_poll_after(0.0);
}

void Balancer::request_poll_after(double seconds) {
  if (stopped_ || self_tick_armed_) return;
  self_tick_armed_ = true;
  ByteWriter w;
  w.put<PolicyTag>(0);
  node_.send_self_after(
      seconds, dmcs::Message{wire_h_, node_.rank(), dmcs::MsgKind::kSystem, w.take()});
}

void Balancer::migrate_object(const mol::MobilePtr& ptr, ProcId dst) {
  if (auto* ts = node_.trace()) {
    // The policy just decided to move work: record the decision itself,
    // attributed to the policy by name. (Mol::migrate records the transfer.)
    if (policy_name_id_ == 0) {
      policy_name_id_ = ts->recorder().intern(policy_->name());
    }
    double weight = 0.0;
    for (const auto& load : sched_.migratable_loads()) {
      if (load.ptr == ptr) {
        weight = load.weight;
        break;
      }
    }
    ts->record(trace::EventKind::kPolicyDecision, node_.now(), dst, 0, weight,
               policy_name_id_);
    ++migrations_this_round_;
  }
  mol_.migrate(ptr, dst);
}

void Balancer::send_policy(ProcId dst, PolicyTag tag,
                           std::vector<std::uint8_t> body) {
  ByteWriter w(body.size() + 1);
  w.put<PolicyTag>(tag);
  for (std::uint8_t b : body) w.put<std::uint8_t>(b);
  node_.send(dst, dmcs::Message{wire_h_, node_.rank(), dmcs::MsgKind::kSystem, w.take()});
}

void Balancer::charge_seconds(double seconds) {
  node_.compute_seconds(seconds, util::TimeCategory::kScheduling);
}

std::vector<GossipSummary> Balancer::gossip() const {
  std::vector<GossipSummary> out;
  out.reserve(gossip_.size());
  for (const auto& [proc, s] : gossip_) out.push_back(s);
  return out;
}

void Balancer::maybe_gossip() {
  if (!policy_->wants_topology()) return;
  const double t = node_.now();
  if (t < next_gossip_) return;
  next_gossip_ = t + kGossipIntervalS;

  GossipSummary s;
  s.proc = node_.rank();
  s.t = t;
  s.load = local_load();
  std::uint64_t with_coords = 0;
  for (const mol::MobilePtr& ptr : mol_.local_ptrs()) {
    ++s.objects;
    if (const auto c = mol_.coords(ptr)) {
      s.centroid.x += c->x;
      s.centroid.y += c->y;
      s.centroid.z += c->z;
      ++with_coords;
    }
  }
  if (with_coords > 0) {
    s.centroid.x /= static_cast<double>(with_coords);
    s.centroid.y /= static_cast<double>(with_coords);
    s.centroid.z /= static_cast<double>(with_coords);
  }

  // wire:ilb.gossip pack w
  ByteWriter w;
  w.put<double>(s.t);
  w.put<double>(s.load);
  w.put<std::uint64_t>(s.objects);
  w.put<double>(s.centroid.x);
  w.put<double>(s.centroid.y);
  w.put<double>(s.centroid.z);
  const auto body = w.take();
  for (ProcId p = 0; p < node_.nprocs(); ++p) {
    if (p == node_.rank()) continue;
    send_policy(p, kGossipTag, body);
  }
}

void Balancer::switch_policy(std::unique_ptr<Policy> policy) {
  PREMA_CHECK_MSG(policy != nullptr, "cannot switch to a null policy");
  policy_ = std::move(policy);
  policy_name_id_ = 0;       // re-intern the new name lazily
  gossip_.clear();           // stale digests belong to the old policy
  next_gossip_ = node_.now();  // gossip immediately if the new policy wants it
  policy_->init(*this);
}

void Balancer::trace_sfc_cut(std::size_t segments, double imbalance) {
  if (auto* ts = node_.trace()) {
    ts->record(trace::EventKind::kPolicySfcCut, node_.now(), kNoProc, segments,
               imbalance);
  }
}

}  // namespace prema::ilb
