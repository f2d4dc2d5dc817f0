#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/types.hpp"
#include "support/thread_annotations.hpp"
#include "trace/counters.hpp"

/// \file trace.hpp
/// Event-level tracing for the runtime stack. The paper's evaluation is all
/// per-processor time attribution (Figs. 3-6); util::TimeLedger gives the
/// summed buckets, this subsystem records the *individual* activities behind
/// them — work-unit executions, message sends/receives, object migrations,
/// balancing-policy decisions, polling wakeups, partition-calculation spans
/// and termination-detector waves — on a per-processor timeline that can be
/// exported to Chrome trace-event JSON (Perfetto / chrome://tracing) or
/// reconciled against the ledger totals (see trace/export.hpp).
///
/// Design constraints:
///  - Near-zero cost when off: tracing is attached per machine via
///    dmcs::Machine::enable_tracing; every instrumentation site is a single
///    null-pointer test on Node::trace() when tracing was never enabled.
///  - Deterministic: recording never advances a virtual clock or perturbs
///    event order, so two sim-backend runs with the same seed emit
///    byte-identical trace files.
///  - Bounded memory: one fixed-capacity ring buffer per processor; on
///    overflow the *oldest* events are dropped (the tail of a run is what you
///    are usually chasing) and a drop counter records the loss.
///
/// Timestamps are seconds since the start of the run in the machine's own
/// clock domain: virtual time on dmcs::SimMachine, steady-clock wall time on
/// dmcs::ThreadMachine.

namespace prema::trace {

/// Interned-string id (see TraceRecorder::intern). 0 is the empty string.
using StrId = std::uint32_t;

/// What an event records. Each kind's display name, Chrome category, phase,
/// args and counter bumps are one row of the kind table (kind_info); a new
/// kind is one enumerator here, one row there and, if it is counted, one
/// ProcCounters field.
enum class EventKind : std::uint8_t {
  kWorkUnit = 0,    ///< span: one work-unit activity (name=handler, value=weight)
  kPartition,       ///< span: (re)partitioner execution
  kMessageSend,     ///< peer=dst, size=bytes, system flag
  kMessageRecv,     ///< peer=src, size=bytes, system flag
  kMigrationOut,    ///< peer=dst, size=serialized bytes
  kMigrationIn,     ///< peer=src, size=serialized bytes
  kPolicyDecision,  ///< policy chose to migrate (peer=dst, value=weight, name=policy)
  kPolicyWire,      ///< policy protocol message arrived (peer=src, size=tag)
  kPollWakeup,      ///< preemptive polling-thread wakeup
  kTermWave,        ///< termination-detector wave launched (size=wave)
  kFault,           ///< injected/absorbed fault (peer, size=bytes, value=FaultType)
  kRetransmit,      ///< reliable-transport retransmission (peer=dst, size=seq)
  kAck,             ///< bare cumulative ack sent (peer=dst, size=ack value)
  kServiceArrival,  ///< open-loop request injected (size=client, value=Mflop)
  kServiceComplete, ///< request handler finished (size=client, value=sojourn s)
  kServiceEpoch,    ///< service-mode epoch tick (value=sampled load)
  kPolicySfcCut,    ///< sfc recut (size=segments, value=max/mean segment load)
  kPolicyClusterMerge,  ///< cluster batch (peer=dst, size=objects, value=mutual bytes)
  kCount
};

/// Code stored in TraceEvent::value for EventKind::kFault events. The first
/// five are wire-side injections (recorded on the sender); the last two are
/// receiver-side absorptions by the reliable transport.
enum class FaultType : std::uint8_t {
  kDrop = 0,
  kDuplicate,
  kDelay,
  kReorder,
  kCorrupt,
  kDupDropped,     ///< receiver discarded a duplicate copy
  kCorruptDropped  ///< receiver discarded a checksum-mismatched copy
};

/// Display label for a fault type ("drop", "dup", ...).
std::string_view fault_type_name(FaultType t);

constexpr std::size_t kEventKindCount = static_cast<std::size_t>(EventKind::kCount);

/// One recorded event. Fixed-size POD so the ring buffer is a flat array.
struct TraceEvent {
  double t0 = 0.0;         ///< start time, seconds
  double dur = 0.0;        ///< span duration (0 for instants)
  std::uint64_t size = 0;  ///< bytes / tag / wave / seq / client, per kind
  double value = 0.0;      ///< weight / Mflop / seconds / FaultType, per kind
  ProcId peer = kNoProc;   ///< the other processor (src or dst), if any
  StrId name = 0;          ///< interned label (handler / policy name)
  EventKind kind = EventKind::kWorkUnit;
  std::uint8_t flags = 0;  ///< kFlagSystem for system-kind messages

  static constexpr std::uint8_t kFlagSystem = 1;
};

/// The TraceEvent field a Chrome arg prints.
enum class ArgField : std::uint8_t { kNone, kPeer, kSize, kValue, kFaultType, kSystem };

struct KindArg {
  std::string_view key;
  ArgField field = ArgField::kNone;
};

/// One row of the kind table: everything the sinks and the exporters know
/// about an EventKind.
struct KindInfo {
  EventKind kind;
  std::string_view name;      ///< display label ("work-unit", "send", ...)
  std::string_view category;  ///< Chrome trace "cat"
  bool span;                  ///< exported as a complete ("X") event
  KindArg args[3];            ///< Chrome "args", in output order
  /// ProcCounters fields each event bumps (null: none): `count` by one
  /// (kFault picks its field by FaultType instead), `bytes` by size,
  /// `seconds` by the span duration, and `sizes` samples size.
  std::uint64_t ProcCounters::*count = nullptr;
  std::uint64_t ProcCounters::*bytes = nullptr;
  double ProcCounters::*seconds = nullptr;
  Histogram ProcCounters::*sizes = nullptr;
};

/// The kind table row for `k`.
const KindInfo& kind_info(EventKind k);

/// Fixed-capacity ring of TraceEvents that keeps the *newest* events.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity);

  void push(const TraceEvent& e);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Events overwritten because the buffer was full.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Copy out the retained events, oldest first (recording order).
  [[nodiscard]] std::vector<TraceEvent> events() const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< next write slot
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

struct TraceConfig {
  /// Master switch (RuntimeConfig::trace defaults to off).
  bool enabled = false;
  /// Ring capacity per processor, in events (~48 B each). On overflow the
  /// oldest events are dropped and TraceBuffer::dropped counts them.
  std::size_t buffer_capacity = 1 << 14;
};

class TraceRecorder;

/// Per-processor recording handle. Instrumentation sites reach it through
/// Node::trace(), which is nullptr unless tracing was enabled — so the
/// disabled path costs one pointer test. Thread-safe: on the threaded
/// backend the worker and the polling thread record concurrently.
class TraceSink {
 public:
  TraceSink(TraceRecorder& rec, ProcId proc, std::size_t capacity);

  // -- work-unit spans (one active per processor at a time) ---------------
  /// A work-unit activity began at `t`. The span is held open until
  /// work_end; the runtime layer may fill in handler/weight via
  /// work_annotate while the body runs.
  void work_begin(double t);
  void work_annotate(StrId handler_name, double weight);
  void work_end(double t);

  /// A closed span (partition calculation etc.) that ran [t0, t0+dur].
  void span(EventKind kind, double t0, double dur, StrId name = 0);

  /// An instant event: the fields `kind` uses are listed with its enumerator.
  void record(EventKind kind, double t, ProcId peer = kNoProc, std::uint64_t size = 0,
              double value = 0.0, StrId name = 0, bool system = false);
  /// record(kServiceComplete, ...) under its per-kind name, which
  /// perfbench/ records request completions through.
  void service_complete(double t, std::uint64_t client, double sojourn_s) {
    record(EventKind::kServiceComplete, t, kNoProc, client, sojourn_s);
  }

  /// Lightweight per-processor counters and histograms, updated under the
  /// sink lock alongside every recorded event. Returns a snapshot copy so
  /// readers never observe a half-updated histogram.
  [[nodiscard]] ProcCounters counters() const;

  /// Objects migrated per balancing round, sampled by the ILB balancer
  /// (the event stream does not carry round boundaries).
  void sample_migrations_round(double objects_moved);

  [[nodiscard]] ProcId proc() const { return proc_; }
  [[nodiscard]] TraceRecorder& recorder() { return rec_; }
  /// Snapshot of retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  /// Buffer `e` and bump the counters its kind table row names.
  void push_locked(const TraceEvent& e) PREMA_REQUIRES(mu_);

  TraceRecorder& rec_;
  ProcId proc_;
  mutable util::Mutex mu_;  ///< worker vs polling thread (threaded backend)
  TraceBuffer buf_ PREMA_GUARDED_BY(mu_);
  ProcCounters counters_ PREMA_GUARDED_BY(mu_);

  bool work_open_ PREMA_GUARDED_BY(mu_) = false;
  TraceEvent work_ PREMA_GUARDED_BY(mu_){};
};

/// Machine-wide recorder: one TraceSink per processor plus the shared
/// string-intern table. Owned by dmcs::Machine (see Machine::enable_tracing).
class TraceRecorder {
 public:
  TraceRecorder(int nprocs, TraceConfig cfg);

  [[nodiscard]] int nprocs() const { return static_cast<int>(sinks_.size()); }
  [[nodiscard]] const TraceConfig& config() const { return cfg_; }
  [[nodiscard]] TraceSink& sink(ProcId p);
  [[nodiscard]] const TraceSink& sink(ProcId p) const;

  /// Intern `s`, returning a stable id (thread-safe; same string, same id).
  StrId intern(std::string_view s);
  /// The string behind an id ("" for 0 or out-of-range ids).
  [[nodiscard]] std::string_view name(StrId id) const;

  /// Total events currently retained across all processors.
  [[nodiscard]] std::uint64_t total_events() const;
  /// Total events dropped to overflow across all processors.
  [[nodiscard]] std::uint64_t total_dropped() const;

 private:
  TraceConfig cfg_;
  std::vector<std::unique_ptr<TraceSink>> sinks_;

  mutable util::Mutex intern_mu_;
  /// deque, not vector: name() hands out string_views into the elements, and
  /// deque growth never relocates existing strings.
  std::deque<std::string> strings_ PREMA_GUARDED_BY(intern_mu_);
  std::unordered_map<std::string, StrId> ids_ PREMA_GUARDED_BY(intern_mu_);
};

}  // namespace prema::trace
