#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "dmcs/node.hpp"
#include "fault/fault_plan.hpp"
#include "trace/trace.hpp"

/// \file machine.hpp
/// A machine = N processors + an interconnect + a handler registry. Two
/// implementations: SimMachine (discrete-event emulation of the paper's
/// cluster, any nprocs) and ThreadMachine (real threads, laptop scale).

namespace prema::dmcs {

/// Builds the per-node Program instance for rank `p`. Most runtimes return
/// the same subclass for every rank; SPMD style.
using ProgramFactory = std::function<std::unique_ptr<Program>(ProcId p)>;

class Machine {
 public:
  virtual ~Machine() = default;

  [[nodiscard]] virtual int nprocs() const = 0;
  [[nodiscard]] virtual Node& node(ProcId p) = 0;
  [[nodiscard]] virtual HandlerRegistry& registry() = 0;

  /// Run a program to quiescence: instantiate one Program per node, call
  /// main() on every node, then drive message delivery and service until no
  /// node has work and no messages are in flight. Returns the makespan (time
  /// at which the last processor went quiet).
  virtual double run(const ProgramFactory& factory) = 0;

  /// Ledger of processor `p` after (or during) a run.
  [[nodiscard]] virtual const util::TimeLedger& ledger(ProcId p) const = 0;

  /// Attach an event recorder and hand each node its per-processor sink
  /// (call before run()). Honors cfg.enabled; returns the recorder, or
  /// nullptr when tracing stays off.
  /// Idempotent: a second call returns the existing recorder.
  trace::TraceRecorder* enable_tracing(trace::TraceConfig cfg) {
    if (!cfg.enabled) return tracer_.get();
    if (!tracer_) {
      tracer_ = std::make_unique<trace::TraceRecorder>(nprocs(), cfg);
      for (ProcId p = 0; p < nprocs(); ++p) {
        node(p).set_trace_sink(&tracer_->sink(p));
      }
    }
    return tracer_.get();
  }

  /// The attached recorder, or nullptr when tracing was never enabled.
  [[nodiscard]] trace::TraceRecorder* tracer() const { return tracer_.get(); }

  /// Install a fault plan (call before run()). An active plan switches both
  /// backends into reliable-transport mode: messages are stamped with
  /// sequence numbers and checksums, acked, retransmitted, deduplicated and
  /// resequenced (dmcs/reliable.hpp), and the wire consults the plan for
  /// every transmission. A null or inactive plan ("none" profile) leaves the
  /// legacy loss-free path byte-identical to a machine with no plan at all.
  void set_fault_plan(std::shared_ptr<fault::FaultPlan> plan) {
    fault_plan_ = std::move(plan);
  }

  /// Install the canned fault profile `name` (fault::make_fault_profile,
  /// which aborts on an unknown name) seeded with `seed` (call before
  /// run()). "none" or "" installs nothing: a plan allocates one RNG stream
  /// per directed link, nprocs^2 in all.
  void set_fault_profile(const std::string& name, std::uint64_t seed) {
    if (name.empty() || name == "none") return;
    set_fault_plan(std::make_shared<fault::FaultPlan>(fault::make_fault_profile(name),
                                                      seed, nprocs()));
  }

  /// The active fault plan, or nullptr when the machine runs fault-free
  /// (inactive plans read as nullptr so the wire never consults them).
  [[nodiscard]] fault::FaultPlan* fault_plan() const {
    return fault_plan_ && fault_plan_->active() ? fault_plan_.get() : nullptr;
  }

  /// True when the reliable-delivery protocol is engaged.
  [[nodiscard]] bool reliable() const { return fault_plan() != nullptr; }

 private:
  std::unique_ptr<trace::TraceRecorder> tracer_;
  std::shared_ptr<fault::FaultPlan> fault_plan_;
};

}  // namespace prema::dmcs
