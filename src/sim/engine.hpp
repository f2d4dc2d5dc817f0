#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"
#include "support/time_ledger.hpp"

/// \file engine.hpp
/// The cluster emulator: a discrete-event engine over a set of virtual
/// processors. Substitutes for the paper's 128-node UltraSPARC/Fast-Ethernet
/// testbed (see DESIGN.md). Each processor owns a local clock and a TimeLedger;
/// runtime layers (DMCS/MOL/ILB, charmlite, the repartitioning driver) advance
/// the clock by charging activities, and the engine sequences the processors
/// through a global event queue.
///
/// Execution model: all protocol code runs as ordinary C++ inside event
/// callbacks. Long-running *work units* use deferred-cost execution — the
/// handler body runs (mutating real data structures) at the activity's start
/// and declares its compute cost; the runtime then models the activity as a
/// timed interval during which it can be "interrupted" by a polling thread
/// (PREMA implicit mode). See dmcs/sim_machine.hpp.

namespace prema::sim {

/// Parameters of the emulated machine.
struct MachineConfig {
  /// Number of virtual processors (the paper uses 128).
  int nprocs = 128;
  /// Per-processor compute rate in Mflop/s (333 MHz UltraSPARC IIi ~ 333).
  double mflops = 333.0;
  /// Master seed; every per-proc RNG stream derives from it.
  std::uint64_t seed = 0x5EEDULL;

  /// Seconds of compute represented by `mflop` Mflop of work.
  [[nodiscard]] double compute_seconds(double mflop) const { return mflop / mflops; }
};

/// Per-processor emulated state: the local clock (time through which this
/// processor's timeline has been charged) and the category ledger.
class ProcState {
 public:
  ProcState(ProcId id, std::uint64_t seed) : id_(id), rng_(seed) {}

  [[nodiscard]] ProcId id() const { return id_; }
  [[nodiscard]] SimTime clock() const { return clock_; }
  [[nodiscard]] util::TimeLedger& ledger() { return ledger_; }
  [[nodiscard]] const util::TimeLedger& ledger() const { return ledger_; }
  [[nodiscard]] util::Rng& rng() { return rng_; }

  /// Charge `seconds` to `cat` and advance the local clock by that much.
  void advance(util::TimeCategory cat, double seconds);

  /// If the local clock is behind `t`, charge the gap to `gap_cat` (Idle by
  /// default; Synchronization while blocked in a balancing barrier) and move
  /// the clock to `t`. A clock already at or past `t` is left untouched.
  void catch_up(SimTime t, util::TimeCategory gap_cat = util::TimeCategory::kIdle);

 private:
  ProcId id_;
  SimTime clock_ = 0.0;
  util::TimeLedger ledger_;
  util::Rng rng_;
};

/// Result of running the engine to completion (or hitting a safety limit).
struct RunStats {
  std::uint64_t events = 0;
  SimTime end_time = 0.0;
  bool hit_event_limit = false;
  bool hit_time_limit = false;
};

class Engine {
 public:
  explicit Engine(MachineConfig cfg);

  [[nodiscard]] const MachineConfig& config() const { return cfg_; }
  [[nodiscard]] int nprocs() const { return cfg_.nprocs; }
  [[nodiscard]] SimTime now() const { return now_; }

  [[nodiscard]] ProcState& proc(ProcId p);
  [[nodiscard]] const ProcState& proc(ProcId p) const;

  /// Schedule `fn` at absolute virtual time `t` (must be >= now()).
  EventId at(SimTime t, std::function<void()> fn);
  /// Schedule `fn` `delay` seconds from now.
  EventId after(SimTime delay, std::function<void()> fn);
  void cancel(EventId id) { queue_.cancel(id); }
  /// Id of the event whose callback is running (kNoEvent outside run()), so
  /// a callback can find its own handle without capturing it.
  [[nodiscard]] EventId firing() const { return firing_; }

  /// Run events until the queue drains or a safety limit trips.
  RunStats run(std::uint64_t max_events = UINT64_MAX,
               SimTime max_time = 1e18);

 private:
  MachineConfig cfg_;
  EventQueue queue_;
  std::vector<ProcState> procs_;
  SimTime now_ = 0.0;
  EventId firing_ = kNoEvent;
};

}  // namespace prema::sim
