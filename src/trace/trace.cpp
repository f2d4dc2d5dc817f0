#include "trace/trace.hpp"

#include <algorithm>
#include <iterator>

#include "support/assert.hpp"

namespace prema::trace {

namespace {

using C = ProcCounters;
using enum ArgField;

/// The kind table: one KindInfo row per EventKind, in enumerator order.
constexpr KindInfo kKinds[] = {
    {EventKind::kWorkUnit, "work-unit", "work", true, {{"weight", kValue}},
     &C::work_units, nullptr, &C::work_seconds},
    {EventKind::kPartition, "partition", "partition", true, {},
     &C::partitions, nullptr, &C::partition_seconds},
    {EventKind::kMessageSend, "send", "msg", false,
     {{"dst", kPeer}, {"bytes", kSize}, {"system", kSystem}},
     &C::msgs_sent, &C::bytes_sent, nullptr, &C::msg_size},
    {EventKind::kMessageRecv, "recv", "msg", false,
     {{"src", kPeer}, {"bytes", kSize}, {"system", kSystem}},
     &C::msgs_received, &C::bytes_received},
    {EventKind::kMigrationOut, "migrate-out", "migration", false,
     {{"dst", kPeer}, {"bytes", kSize}}, &C::migrations_out},
    {EventKind::kMigrationIn, "migrate-in", "migration", false,
     {{"src", kPeer}, {"bytes", kSize}}, &C::migrations_in},
    {EventKind::kPolicyDecision, "policy-decision", "policy", false,
     {{"dst", kPeer}, {"weight", kValue}}, &C::policy_decisions},
    {EventKind::kPolicyWire, "policy-msg", "policy", false,
     {{"src", kPeer}, {"tag", kSize}}, &C::policy_wire_msgs},
    {EventKind::kPollWakeup, "poll-wakeup", "polling", false, {}, &C::poll_wakeups},
    {EventKind::kTermWave, "term-wave", "termination", false, {{"wave", kSize}},
     &C::term_waves},
    {EventKind::kFault, "fault", "fault", false,
     {{"peer", kPeer}, {"type", kFaultType}, {"bytes", kSize}}},
    {EventKind::kRetransmit, "retransmit", "transport", false,
     {{"dst", kPeer}, {"seq", kSize}}, &C::retransmits},
    {EventKind::kAck, "ack", "transport", false, {{"dst", kPeer}, {"ack", kSize}},
     &C::acks_sent},
    {EventKind::kServiceArrival, "service-arrival", "service", false,
     {{"client", kSize}, {"mflop", kValue}}, &C::service_arrivals},
    {EventKind::kServiceComplete, "service-complete", "service", false,
     {{"client", kSize}, {"sojourn_s", kValue}}, &C::service_completions},
    {EventKind::kServiceEpoch, "service-epoch", "service", false, {{"load", kValue}},
     &C::service_epochs},
    {EventKind::kPolicySfcCut, "policy.sfc_cut", "policy", false,
     {{"segments", kSize}, {"imbalance", kValue}}, &C::sfc_cuts},
    {EventKind::kPolicyClusterMerge, "policy.cluster_merge", "policy", false,
     {{"dst", kPeer}, {"objects", kSize}, {"traffic", kValue}}, &C::cluster_merges},
};

constexpr bool rows_complete_and_in_order() {
  if (std::size(kKinds) != kEventKindCount) return false;
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    const KindInfo& k = kKinds[i];
    if (k.kind != static_cast<EventKind>(i) || k.name.empty() || k.category.empty()) {
      return false;
    }
  }
  return true;
}
static_assert(rows_complete_and_in_order(),
              "kKinds needs one row per EventKind, in enumerator order");

/// One row per FaultType, in enumerator order: its display name and the
/// counter a kFault event of that type bumps.
constexpr struct {
  std::string_view name;
  std::uint64_t C::*count;
} kFaults[] = {
    {"drop", &C::faults_injected},    {"dup", &C::faults_injected},
    {"delay", &C::faults_injected},   {"reorder", &C::faults_injected},
    {"corrupt", &C::faults_injected}, {"dup-dropped", &C::dup_drops},
    {"corrupt-dropped", &C::corrupt_drops},
};
static_assert(std::size(kFaults) ==
              static_cast<std::size_t>(FaultType::kCorruptDropped) + 1);

}  // namespace

const KindInfo& kind_info(EventKind k) { return kKinds[static_cast<std::size_t>(k)]; }

std::string_view fault_type_name(FaultType t) {
  return kFaults[static_cast<std::size_t>(t)].name;
}

// ---------------------------------------------------------------------------
// TraceBuffer
// ---------------------------------------------------------------------------

TraceBuffer::TraceBuffer(std::size_t capacity) {
  PREMA_CHECK_MSG(capacity > 0, "trace buffer needs capacity >= 1");
  ring_.resize(capacity);
}

void TraceBuffer::push(const TraceEvent& e) {
  ring_[head_] = e;
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) {
    ++size_;
  } else {
    ++dropped_;  // overwrote the oldest retained event
  }
}

std::vector<TraceEvent> TraceBuffer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  // Oldest event sits at head_ once the ring has wrapped, at 0 before.
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

TraceSink::TraceSink(TraceRecorder& rec, ProcId proc, std::size_t capacity)
    : rec_(rec), proc_(proc), buf_(capacity) {}

void TraceSink::push_locked(const TraceEvent& e) {
  buf_.push(e);
  const KindInfo& k = kind_info(e.kind);
  const auto count = e.kind == EventKind::kFault
                         ? kFaults[static_cast<std::size_t>(e.value)].count
                         : k.count;
  if (count) ++(counters_.*count);
  if (k.bytes) counters_.*k.bytes += e.size;
  if (k.seconds) counters_.*k.seconds += e.dur;
  if (k.sizes) (counters_.*k.sizes).add(static_cast<double>(e.size));
}

void TraceSink::work_begin(double t) {
  util::LockGuard g(mu_);
  work_ = TraceEvent{};
  work_.kind = EventKind::kWorkUnit;
  work_.t0 = t;
  work_open_ = true;
}

void TraceSink::work_annotate(StrId handler_name, double weight) {
  util::LockGuard g(mu_);
  if (!work_open_) return;
  work_.name = handler_name;
  work_.value = weight;
}

void TraceSink::work_end(double t) {
  util::LockGuard g(mu_);
  if (!work_open_) return;
  work_open_ = false;
  work_.dur = std::max(0.0, t - work_.t0);
  push_locked(work_);
}

void TraceSink::span(EventKind kind, double t0, double dur, StrId name) {
  TraceEvent e;
  e.kind = kind;
  e.t0 = t0;
  e.dur = dur;
  e.name = name;
  util::LockGuard g(mu_);
  push_locked(e);
}

void TraceSink::record(EventKind kind, double t, ProcId peer, std::uint64_t size,
                       double value, StrId name, bool system) {
  TraceEvent e;
  e.kind = kind;
  e.t0 = t;
  e.peer = peer;
  e.size = size;
  e.value = value;
  e.name = name;
  if (system) e.flags |= TraceEvent::kFlagSystem;
  util::LockGuard g(mu_);
  push_locked(e);
}

ProcCounters TraceSink::counters() const {
  util::LockGuard g(mu_);
  return counters_;
}

void TraceSink::sample_migrations_round(double objects_moved) {
  util::LockGuard g(mu_);
  counters_.migrations_per_round.add(objects_moved);
}

std::vector<TraceEvent> TraceSink::events() const {
  util::LockGuard g(mu_);
  return buf_.events();
}

std::uint64_t TraceSink::dropped() const {
  util::LockGuard g(mu_);
  return buf_.dropped();
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TraceRecorder::TraceRecorder(int nprocs, TraceConfig cfg) : cfg_(cfg) {
  PREMA_CHECK_MSG(nprocs > 0, "recorder needs at least one processor");
  strings_.emplace_back();  // id 0 = ""
  sinks_.reserve(static_cast<std::size_t>(nprocs));
  for (ProcId p = 0; p < nprocs; ++p) {
    sinks_.push_back(std::make_unique<TraceSink>(*this, p, cfg_.buffer_capacity));
  }
}

TraceSink& TraceRecorder::sink(ProcId p) {
  PREMA_CHECK_MSG(p >= 0 && p < nprocs(), "trace sink rank out of range");
  return *sinks_[static_cast<std::size_t>(p)];
}

const TraceSink& TraceRecorder::sink(ProcId p) const {
  PREMA_CHECK_MSG(p >= 0 && p < nprocs(), "trace sink rank out of range");
  return *sinks_[static_cast<std::size_t>(p)];
}

StrId TraceRecorder::intern(std::string_view s) {
  if (s.empty()) return 0;
  util::LockGuard g(intern_mu_);
  auto it = ids_.find(std::string(s));
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<StrId>(strings_.size());
  strings_.emplace_back(s);
  ids_.emplace(strings_.back(), id);
  return id;
}

std::string_view TraceRecorder::name(StrId id) const {
  util::LockGuard g(intern_mu_);
  if (id >= strings_.size()) return {};
  return strings_[id];
}

std::uint64_t TraceRecorder::total_events() const {
  std::uint64_t n = 0;
  for (const auto& s : sinks_) n += s->events().size();
  return n;
}

std::uint64_t TraceRecorder::total_dropped() const {
  std::uint64_t n = 0;
  for (const auto& s : sinks_) n += s->dropped();
  return n;
}

}  // namespace prema::trace
