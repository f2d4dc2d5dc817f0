#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hpp"
#include "support/rng.hpp"
#include "support/thread_annotations.hpp"

/// \file fault_plan.hpp
/// Deterministic fault injection for the DMCS interconnect and nodes. A
/// FaultPlan turns a declarative FaultProfile (per-link drop / duplication /
/// reordering / latency-spike / corruption probabilities, per-node slowdown
/// and pause intervals) into concrete per-message decisions, drawn from
/// per-link xoshiro streams seeded from a single fault seed. Two runs with the
/// same profile, seed and workload therefore inject the *same* fault schedule
/// — fault runs are reproducible and trace-diffable, which is what makes the
/// reliability protocol (dmcs/reliable.hpp) testable at all.
///
/// The plan is consulted by both DMCS backends at the wire layer, underneath
/// the reliable-delivery protocol: a dropped message is simply never
/// delivered (the sender's retransmit timer recovers it), a duplicated one is
/// delivered twice (receiver-side dedup absorbs it), a corrupted one arrives
/// with a truncated payload (the checksum mismatch is detected and the copy
/// discarded), and reordered/delayed copies bypass the emulator's per-channel
/// FIFO clamp (receiver-side resequencing restores order).
///
/// Machines with no plan installed (the default) run the exact pre-fault
/// code path: no sequence numbers, no acks, byte-identical traces.

namespace prema::fault {

/// Fault rules for one directed link (sender -> receiver).
struct LinkFaults {
  double drop_p = 0.0;     ///< message vanishes on the wire
  double dup_p = 0.0;      ///< message is delivered twice
  double reorder_p = 0.0;  ///< copy bypasses FIFO and gets window jitter
  double corrupt_p = 0.0;  ///< payload truncated in flight (checksum catches)
  double delay_p = 0.0;    ///< latency spike
  double delay_s = 0.0;    ///< spike magnitude: uniform in [0, delay_s)
  double reorder_window_s = 0.0;  ///< jitter window for reordered copies

  [[nodiscard]] bool any() const {
    return drop_p > 0.0 || dup_p > 0.0 || reorder_p > 0.0 || corrupt_p > 0.0 ||
           delay_p > 0.0;
  }
};

/// Fault rules for one node (degraded hardware, OS jitter, paging).
struct NodeFaults {
  /// Compute costs on this node are multiplied by this factor (straggler).
  double slowdown_factor = 1.0;
  /// Pause window: arrivals at this node stall until the window ends,
  /// starting at pause_start_s for pause_len_s seconds. With
  /// pause_period_s > 0 the window repeats every period.
  double pause_start_s = 0.0;
  double pause_len_s = 0.0;
  double pause_period_s = 0.0;

  [[nodiscard]] bool any() const {
    return slowdown_factor != 1.0 || pause_len_s > 0.0;
  }
};

/// A declarative fault schedule: defaults plus per-link / per-node overrides.
struct FaultProfile {
  std::string name = "none";
  LinkFaults link;  ///< default for every directed link
  NodeFaults node;  ///< default for every node
  /// Per-link overrides; kNoProc (-1) in either slot is a wildcard, exact
  /// matches win over (src, *) which wins over (*, dst).
  std::map<std::pair<ProcId, ProcId>, LinkFaults> link_overrides;
  std::map<ProcId, NodeFaults> node_overrides;

  [[nodiscard]] bool any() const;
};

/// Canned profiles: "none", "lossy1pct", "burst-reorder", "one-slow-node",
/// "mid-pause" (see EXPERIMENTS.md "Fault injection" and "Service mode").
/// Aborts on an unknown name.
FaultProfile make_fault_profile(const std::string& name);
[[nodiscard]] bool is_fault_profile(const std::string& name);

/// The wire-level fate of one message transmission.
struct WireFate {
  int copies = 1;            ///< 0 = dropped, 2 = duplicated
  bool corrupt = false;      ///< truncate payload (reliable messages only)
  bool reorder = false;      ///< bypass the per-channel FIFO clamp
  double extra_delay_s = 0.0;       ///< latency spike added to every copy
  double reorder_jitter_s[2] = {0.0, 0.0};  ///< per-copy jitter when reordered
};

/// Instantiated fault schedule for one machine: the profile plus one seeded
/// RNG stream per directed link, so fault decisions on one link never perturb
/// another link's schedule. Thread-safe (the threaded backend draws from
/// worker and poller threads concurrently); on the emulated machine the lock
/// is uncontended and the draw order is fixed by the event order.
class FaultPlan {
 public:
  FaultPlan(FaultProfile profile, std::uint64_t seed, int nprocs);

  /// False when the profile can never inject anything ("none"): machines
  /// treat an inactive plan exactly like no plan at all.
  [[nodiscard]] bool active() const { return active_; }

  /// Draw the fate of one message transmission on link src -> dst.
  [[nodiscard]] WireFate on_send(ProcId src, ProcId dst);

  /// Compute-cost multiplier for node `p` (1.0 = healthy).
  [[nodiscard]] double compute_factor(ProcId p) const;

  /// Earliest time >= t at which node `p` is not paused (arrival release).
  [[nodiscard]] double release_time(ProcId p, double t) const;

  /// Static health oracle: true when the plan marks `p` as a straggler
  /// (slowed or pausing). Balancing policies combine this with the dynamic
  /// retransmit signal (Node::peer_degraded).
  [[nodiscard]] bool node_degraded(ProcId p) const;

  [[nodiscard]] const LinkFaults& link(ProcId src, ProcId dst) const;
  [[nodiscard]] const NodeFaults& node(ProcId p) const;

 private:
  FaultProfile profile_;
  int nprocs_;
  bool active_;
  mutable util::Mutex mu_;
  std::vector<util::Rng> link_rng_ PREMA_GUARDED_BY(mu_);
};

}  // namespace prema::fault
