#pragma once

#include <map>
#include <memory>
#include <optional>

#include "dmcs/node.hpp"
#include "ilb/policy.hpp"
#include "ilb/scheduler.hpp"
#include "mol/mol.hpp"
#include "trace/trace.hpp"

/// \file balancer.hpp
/// Glue between one processor's scheduler, its Mobile Object Layer, and the
/// plugged-in balancing policy. The balancer implements PolicyContext, feeds
/// the policy its events, and carries PREMA's water-mark logic, including the
/// implicit-mode trick from paper §4.2: when the processor starts running its
/// *last* queued unit, the balancer arms a self-addressed system message so
/// the polling thread initiates balancing *during* the unit instead of after
/// it — this is exactly why implicit PREMA keeps processors fed.

namespace prema::ilb {

/// Water-marks on a processor's load, which is its queued application weight
/// hints (Scheduler::queued_weight).
struct BalancerConfig {
  /// Load below which this processor asks for work.
  double low_watermark = 2.0;
  /// Load above which a processor is willing to donate.
  double donate_threshold = 4.0;
};

class Balancer final : public PolicyContext {
 public:
  /// Framework-reserved policy wire tag for GossipSummary broadcasts;
  /// intercepted by on_wire before policy dispatch (policies use 1..254).
  static constexpr PolicyTag kGossipTag = 255;

  Balancer(dmcs::Node& node, mol::Mol& mol, Scheduler& sched,
           std::unique_ptr<Policy> policy, BalancerConfig cfg,
           dmcs::HandlerId policy_wire_h);

  // -- events from the runtime's Program --------------------------------
  void init();
  /// A poll point (service pass, polling tick, or idle transition).
  void poll();
  /// A policy wire message arrived (dispatched from the DMCS handler).
  void on_wire(dmcs::Message&& msg);
  /// The scheduler accepted new local work.
  void work_arrived();
  /// A work unit just started; if the queue ran dry behind it, arm the
  /// polling-thread wakeup (implicit mode) via a self system message.
  void unit_started();

  [[nodiscard]] Policy& policy() { return *policy_; }

  /// Swap in a new policy mid-run (service-mode switch schedules). The old
  /// policy's in-flight wire messages may still arrive and are delivered to
  /// the new policy — so a switch target must tolerate stray tags (sfc does;
  /// the scalar paper policies assert on unknown tags and are only safe as
  /// the *first* policy in a schedule). Gossip state and the
  /// interned trace name are reset; the new policy is init()-ed. Switching
  /// does NOT toggle MOL topology accounting — the runtime enables it up
  /// front when any scheduled policy wants it.
  void switch_policy(std::unique_ptr<Policy> policy);

  /// Global termination has been detected: stop initiating balancing (poll
  /// events and timer wakeups become no-ops).
  void stop() { stopped_ = true; }

  struct Stats {
    std::uint64_t polls = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // -- PolicyContext ------------------------------------------------------
  [[nodiscard]] ProcId rank() const override { return node_.rank(); }
  [[nodiscard]] int nprocs() const override { return node_.nprocs(); }
  [[nodiscard]] double now() const override { return node_.now(); }
  [[nodiscard]] util::Rng& rng() override { return node_.rng(); }
  [[nodiscard]] double local_load() const override { return sched_.queued_weight(); }
  [[nodiscard]] double low_watermark() const override { return cfg_.low_watermark; }
  [[nodiscard]] double donate_threshold() const override { return cfg_.donate_threshold; }
  [[nodiscard]] std::vector<Scheduler::ObjectLoad> migratable() const override {
    return sched_.migratable_loads();
  }
  void migrate_object(const mol::MobilePtr& ptr, ProcId dst) override;
  void send_policy(ProcId dst, PolicyTag tag,
                   std::vector<std::uint8_t> body) override;
  void charge_seconds(double seconds) override;
  void request_poll_after(double seconds) override;
  [[nodiscard]] bool peer_degraded(ProcId p) const override {
    return node_.peer_degraded(p);
  }
  [[nodiscard]] bool topology_enabled() const override {
    return mol_.topology_enabled();
  }
  [[nodiscard]] std::optional<mol::Coords> object_coords(
      const mol::MobilePtr& ptr) const override {
    return mol_.coords(ptr);
  }
  [[nodiscard]] std::vector<GossipSummary> gossip() const override;
  void trace_sfc_cut(std::size_t segments, double imbalance) override;

 private:
  /// Broadcast this processor's GossipSummary to every peer when due.
  void maybe_gossip();
  dmcs::Node& node_;
  mol::Mol& mol_;
  Scheduler& sched_;
  std::unique_ptr<Policy> policy_;
  BalancerConfig cfg_;
  dmcs::HandlerId wire_h_;
  Stats stats_;
  bool self_tick_armed_ = false;
  bool stopped_ = false;

  // Tracing: interned policy name (lazy) and the count of objects migrated
  // since the last poll — one "balancing round" for the histogram.
  trace::StrId policy_name_id_ = 0;
  std::uint64_t migrations_this_round_ = 0;

  // Gossip: latest digest per remote processor (ordered for deterministic
  // policy iteration) and the next broadcast due-time. Only populated when
  // the active policy wants topology. Touched only from under the node's
  // state lock (poll and wire handlers both run there).
  std::map<ProcId, GossipSummary> gossip_;
  double next_gossip_ = 0.0;
};

}  // namespace prema::ilb
