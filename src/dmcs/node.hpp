#pragma once

#include <atomic>
#include <functional>

#include "dmcs/handler_registry.hpp"
#include "dmcs/message.hpp"
#include "support/rng.hpp"
#include "support/thread_annotations.hpp"
#include "support/time_ledger.hpp"

namespace prema::trace {
class TraceSink;
}

/// \file node.hpp
/// The per-processor view of the DMCS. All protocol code above this layer
/// (mobile object layer, load balancing framework, charmlite, the benchmark
/// drivers) is written against `Node` + `Program` and therefore runs unchanged
/// on the emulated 128-proc machine and on the real threaded machine.

namespace prema::dmcs {

class Machine;

/// When and how load-balancing (system) messages get CPU time.
enum class PollingMode : std::uint8_t {
  /// Paper §4.1 — explicit: system messages are handled only when the
  /// application reaches a poll point (between work units).
  kExplicit = 0,
  /// Paper §4.2 — implicit: a polling thread wakes at a fixed period during
  /// long-running work units and handles pending system messages preemptively.
  kPreemptive = 1
};

struct PollingConfig {
  PollingMode mode = PollingMode::kExplicit;
  /// Polling-thread wakeup period (implicit mode only).
  double interval_s = 10e-3;
};

/// CPU cost of a polling wakeup that finds nothing (charged in bulk per
/// activity).
inline constexpr double kSilentPollTickCostS = 3e-6;

/// Per-node message counters (used by quiescence detection and the reports).
/// Atomic because on the threaded backend the worker and the polling thread
/// both send and receive (a system handler dispatched by the poller may call
/// Node::send concurrently with the worker's own sends).
struct NodeStats {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> work_units_executed{0};
};

/// One processor's runtime context. Handlers and Program hooks receive the
/// Node of the processor they are running on.
class Node {
 public:
  virtual ~Node() = default;

  [[nodiscard]] ProcId rank() const { return rank_; }
  [[nodiscard]] int nprocs() const { return nprocs_; }

  /// Seconds since the start of the run: virtual time on the emulated
  /// machine, wall time on the threaded machine.
  [[nodiscard]] virtual double now() const = 0;

  [[nodiscard]] virtual util::Rng& rng() = 0;
  [[nodiscard]] virtual util::TimeLedger& ledger() = 0;
  [[nodiscard]] virtual const PollingConfig& polling() const = 0;
  [[nodiscard]] virtual HandlerRegistry& registry() = 0;
  [[nodiscard]] NodeStats& stats() { return stats_; }

  /// Send an active message to `dst` (self-sends allowed). Charges the
  /// sender-side CPU cost to Messaging and delivers asynchronously.
  virtual void send(ProcId dst, Message msg) = 0;

  /// Deliver `msg` to this processor `delay_s` seconds from now — the timer
  /// primitive behind balancing retries and the polling thread's periodic
  /// work (no network cost; the message never leaves the node).
  virtual void send_self_after(double delay_s, Message msg) = 0;

  /// Drop every not-yet-delivered timer armed with send_self_after. Called
  /// when global termination has been detected so pending balancing retries
  /// cannot keep the machine (or its clocks) alive.
  virtual void cancel_timers() = 0;

  /// Account `mflop` Mflop of CPU work to `cat`. Inside a work-unit body
  /// (see execute) the cost defines the unit's duration; anywhere else it is
  /// charged immediately.
  virtual void compute(double mflop,
                       util::TimeCategory cat = util::TimeCategory::kCallback) = 0;

  /// Like compute(), but in raw seconds instead of Mflop.
  virtual void compute_seconds(double seconds,
                               util::TimeCategory cat = util::TimeCategory::kCallback) = 0;

  /// Execute an application work unit: dispatch `msg` to its handler as the
  /// body of a timed, non-migratable activity. In implicit polling mode the
  /// activity can be preempted by the polling thread for *system* messages.
  /// `on_complete` runs when the activity (body + declared compute) finishes.
  /// Only one work unit can be active at a time; callable from
  /// Program::service only.
  virtual void execute(Message&& msg, std::function<void()> on_complete) = 0;

  /// True while a work unit activity is in flight.
  [[nodiscard]] virtual bool executing() const = 0;

  /// Number of messages that have arrived but not yet been handed to the
  /// program (used by quiescence detection: a processor with a non-empty
  /// inbox is not idle even if its scheduler is empty).
  [[nodiscard]] virtual std::size_t inbox_size() const = 0;

  /// Category charged while this processor waits (Idle by default;
  /// Synchronization while blocked in a balancing barrier). The emulated
  /// machine uses it for gap accounting; the threaded machine ignores it.
  virtual void set_wait_category(util::TimeCategory) {}

  /// True when the machine runs the reliable-delivery protocol (an active
  /// fault plan is installed — see Machine::set_fault_plan). Layers above
  /// gate their own hardening on this: MOL switches migration to the
  /// two-phase offer/commit handoff.
  [[nodiscard]] virtual bool reliable_transport() const { return false; }

  /// True when this node's reliable transport has nothing in flight: no
  /// unacked sends, no out-of-order arrivals held back. Always true on a
  /// fault-free machine. Termination detection treats a non-quiet transport
  /// as in-flight work (an acked-but-unreleased message must keep the
  /// machine alive until it reaches an inbox).
  [[nodiscard]] virtual bool transport_quiet() const { return true; }

  /// Health view of a peer, consumed by balancing policies: true when the
  /// fault plan marks `p` as degraded (slowed / pausing) or when this node's
  /// link to `p` is currently retransmitting. Always false on a fault-free
  /// machine.
  [[nodiscard]] virtual bool peer_degraded(ProcId) const { return false; }

  /// Run `msg`'s handler right now in the caller's context.
  void dispatch(Message&& msg);

  /// Lock guarding the runtime state (MOL directory, scheduler queues) that
  /// the polling thread may touch concurrently with the worker (threaded
  /// machine only; uncontended on the emulated machine, where everything is
  /// sequential). Recursive because runtime layers nest: a policy handler
  /// entered under the lock may call back into MOL migration, which locks
  /// again.
  [[nodiscard]] util::RecursiveLock lock_state() PREMA_ACQUIRE(state_mutex_) {
    return util::RecursiveLock(state_mutex_);
  }

  /// The state capability itself, so other layers (MOL, PREMA runtime) can
  /// name it in PREMA_GUARDED_BY / PREMA_REQUIRES annotations.
  [[nodiscard]] util::RecursiveMutex& state_mutex()
      PREMA_RETURN_CAPABILITY(state_mutex_) {
    return state_mutex_;
  }

  /// This processor's trace sink, or nullptr when tracing is off (the
  /// common case — instrumentation sites test this one pointer and skip).
  /// Installed by Machine::enable_tracing before the run starts.
  [[nodiscard]] trace::TraceSink* trace() const { return trace_; }
  void set_trace_sink(trace::TraceSink* sink) { trace_ = sink; }

 protected:
  Node(ProcId rank, int nprocs) : rank_(rank), nprocs_(nprocs) {}

  ProcId rank_;
  int nprocs_;
  NodeStats stats_;
  trace::TraceSink* trace_ = nullptr;  ///< installed before run(), then read-only
  util::RecursiveMutex state_mutex_;
};

/// The behaviour a runtime layer plugs into each node. The backend drives the
/// node through these hooks:
///   - main()          once at start of run
///   - deliver_app()   for each application message at a poll point
///   - deliver_system() for each system message (poll point, or polling-thread
///                      wakeup in implicit mode)
///   - service()       drained & idle: do one unit of local work; return false
///                      if there is nothing to do
///   - on_idle()       transitioned to idle (no messages, service() == false)
class Program {
 public:
  virtual ~Program() = default;
  virtual void main(Node&) {}
  virtual void deliver_app(Node& n, Message&& m) { n.dispatch(std::move(m)); }
  virtual void deliver_system(Node& n, Message&& m) { n.dispatch(std::move(m)); }
  virtual bool service(Node&) { return false; }
  virtual void on_idle(Node&) {}
};

}  // namespace prema::dmcs
