#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ilb/scheduler.hpp"
#include "mol/coords.hpp"
#include "mol/mobile_ptr.hpp"
#include "support/byte_buffer.hpp"
#include "support/rng.hpp"

/// \file policy.hpp
/// PREMA's load-balancing framework [Barker et al., TPDS'03]: policies are
/// pluggable strategy objects driven by three kinds of events — poll points
/// (the scheduler's pick-and-process loop, or a polling-thread wakeup in
/// implicit mode), policy wire messages, and local load transitions. The
/// framework, not the policy, decides *when* these fire (explicitly at poll
/// operations or preemptively); the policy decides *what* moves *where*.

namespace prema::ilb {

/// Tag namespace for a policy's own wire messages (one byte on the wire).
/// Tag 0 is the Balancer's self-tick; 255 is the framework's gossip channel
/// (Balancer::kGossipTag). Scalar policies use 1..19 and abort on anything
/// else in that range (fail-fast on corrupt traffic); topology policies use
/// 20..254 (kTopologyTagBase up). The Balancer absorbs topology-range tags
/// before a scalar policy ever sees them: around a mid-run policy switch,
/// ranks swap on their own clocks, so an early-switching rank's first sfc
/// report can reach a rank whose scalar policy is still active.
using PolicyTag = std::uint8_t;

/// First tag reserved for topology-aware policies (see PolicyTag).
inline constexpr PolicyTag kTopologyTagBase = 20;

/// One processor's periodic topology digest, broadcast by the framework's
/// gossip hook when the active policy wants topology. Staleness is bounded:
/// a summary is at most one gossip interval plus one message latency old
/// (see DESIGN.md "Policy layer").
struct GossipSummary {
  ProcId proc = kNoProc;
  /// Sender-local time at which the summary was taken.
  double t = 0.0;
  /// Queued load on the sender at that time (same units as local_load()).
  double load = 0.0;
  /// Resident mobile objects on the sender.
  std::uint64_t objects = 0;
  /// Centroid of the sender's registered object coordinates (zeros when the
  /// sender has no coordinates registered).
  mol::Coords centroid;
};

/// What a policy sees and may do. Implemented by the Balancer.
class PolicyContext {
 public:
  virtual ~PolicyContext() = default;

  [[nodiscard]] virtual ProcId rank() const = 0;
  [[nodiscard]] virtual int nprocs() const = 0;
  [[nodiscard]] virtual double now() const = 0;
  [[nodiscard]] virtual util::Rng& rng() = 0;

  /// Queued local load: the application weight hints of the queued units.
  /// Does not include the executing unit.
  [[nodiscard]] virtual double local_load() const = 0;

  /// The configured low water-mark below which this processor counts as
  /// underloaded (paper §4.1).
  [[nodiscard]] virtual double low_watermark() const = 0;

  /// Load above which this processor is willing to donate work.
  [[nodiscard]] virtual double donate_threshold() const = 0;

  /// Per-object migratable load (excludes the executing object).
  [[nodiscard]] virtual std::vector<Scheduler::ObjectLoad> migratable() const = 0;

  /// Uninstall `ptr` (with its queued work) and ship it to `dst`.
  virtual void migrate_object(const mol::MobilePtr& ptr, ProcId dst) = 0;

  /// Send a policy wire message (system kind — eligible for preemptive
  /// processing at the destination).
  virtual void send_policy(ProcId dst, PolicyTag tag,
                           std::vector<std::uint8_t> body) = 0;

  /// Charge decision-making CPU to the Scheduling category.
  virtual void charge_seconds(double seconds) = 0;

  /// Ask the framework for another on_poll roughly `seconds` from now — the
  /// polling thread's periodic wakeup, used for balancing retries/backoff.
  /// Collapses to a single pending wakeup if called repeatedly.
  virtual void request_poll_after(double seconds) = 0;

  /// Per-node health: true when `p` is currently a poor balancing partner —
  /// its fault plan marks it slowed/pausing, or this node's reliable link to
  /// it is retransmitting. Policies should avoid stealing from or donating
  /// to degraded peers. Always false on a fault-free run.
  [[nodiscard]] virtual bool peer_degraded(ProcId) const { return false; }

  // --- Topology view (defaulted: scalar-only policies never see it) -------

  /// True when the MOL is accounting object coordinates for this run. All
  /// accessors below return empty views when false.
  [[nodiscard]] virtual bool topology_enabled() const { return false; }

  /// Application-registered coordinates for a locally known object.
  [[nodiscard]] virtual std::optional<mol::Coords> object_coords(
      const mol::MobilePtr&) const {
    return std::nullopt;
  }

  /// Traffic-graph views. The Balancer does not implement them, so they
  /// always return their defaults; they stay virtual because forwarding
  /// contexts (perfbench/probes.hpp) override every PolicyContext method.
  [[nodiscard]] virtual std::vector<mol::CommEdge> comm_edges() const {
    return {};
  }
  [[nodiscard]] virtual std::vector<mol::ProcTraffic> proc_traffic() const {
    return {};
  }
  [[nodiscard]] virtual ProcId object_location(const mol::MobilePtr&) const {
    return kNoProc;
  }

  /// Latest gossip digest per remote processor (bounded staleness; may be
  /// empty early in the run, before the first gossip interval elapses).
  [[nodiscard]] virtual std::vector<GossipSummary> gossip() const {
    return {};
  }

  /// Trace hook for the sfc policy's recut decisions. A no-op when tracing
  /// is off (and on contexts that do not implement it).
  virtual void trace_sfc_cut(std::size_t /*segments*/, double /*imbalance*/) {}
  /// Never called; kept virtual for the same reason as comm_edges().
  virtual void trace_cluster_merge(ProcId /*dst*/, std::size_t /*objects*/,
                                   double /*traffic*/) {}
};

/// A pluggable dynamic load-balancing strategy.
class Policy {
 public:
  virtual ~Policy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Called once before the run starts.
  virtual void init(PolicyContext&) {}

  /// A poll point on this processor: between work units in explicit mode,
  /// plus polling-thread wakeups in implicit mode, plus idle transitions.
  virtual void on_poll(PolicyContext&) {}

  /// A policy wire message sent by a peer's send_policy.
  virtual void on_message(PolicyContext&, ProcId from, PolicyTag tag,
                          util::ByteReader& body) = 0;

  /// New work (message or migrated object) arrived locally.
  virtual void on_work_arrived(PolicyContext&) {}

  /// Whether this policy consumes the topology view. When true, the runtime
  /// turns on MOL coordinate accounting before the run starts and
  /// the Balancer broadcasts periodic GossipSummary digests. Scalar-only
  /// policies inherit `false` from StatelessPolicy, which keeps their wire
  /// and trace bytes identical to the pre-topology framework.
  [[nodiscard]] virtual bool wants_topology() const = 0;

  /// A peer's gossip digest arrived (framework channel, tag 255). Only
  /// fires for policies with wants_topology() == true.
  virtual void on_gossip(PolicyContext&, const GossipSummary&) = 0;
};

/// Instantiate a policy from its registry name:
///   "null" | "work_stealing" | "diffusion" | "gradient" | "master" |
///   "multilist" | "sfc"
/// Aborts on unknown names; flag parsers check policy_names() first.
std::unique_ptr<Policy> make_policy(const std::string& name);

/// Every name make_policy accepts, in registry order.
[[nodiscard]] std::vector<std::string> policy_names();

}  // namespace prema::ilb
