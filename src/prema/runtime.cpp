#include "prema/runtime.hpp"

#include <algorithm>
#include <utility>

#include "ilb/policy.hpp"
#include "support/assert.hpp"
#include "support/log.hpp"

namespace prema {

using dmcs::Message;
using dmcs::MsgKind;
using util::ByteReader;
using util::ByteWriter;

namespace {

constexpr std::uint8_t kTermReport = 1;
constexpr std::uint8_t kTermProbe = 2;
constexpr std::uint8_t kTermAck = 3;
constexpr std::uint8_t kTermDone = 4;
constexpr std::uint8_t kTermRetry = 5;
constexpr std::uint8_t kTermBlockAck = 6;
constexpr std::uint8_t kTermForward = 7;

/// Coordinator re-probe period when a wave fails under reliable transport
/// (longer than the transport's initial RTO so a retransmit round can finish
/// before the next wave looks).
constexpr double kTermRetryDelayS = 5e-3;

/// Combining tree: ranks form blocks of kTermBlock consecutive ranks, each led
/// by its lowest rank. Reports go to the leader; rank 0 (block 0's leader)
/// exchanges messages only with its own block and the other leaders. With
/// P <= kTermBlock rank 0 is the only leader and the tree is a star.
constexpr int kTermBlock = 128;

/// A leader forwards its block's report sums to rank 0 at most once per this
/// period (the default polling interval).
constexpr double kTermForwardDelayS = 10e-3;

ProcId leader_of(ProcId p) { return p - p % kTermBlock; }
bool is_leader(ProcId p) { return p % kTermBlock == 0; }
int block_size(ProcId leader, int nprocs) {
  return std::min(kTermBlock, nprocs - leader);
}

/// A rank's idle report to its leader, or a leader's block sums to rank 0.
std::vector<std::uint8_t> report_payload(std::int64_t sent, std::int64_t recv) {
  ByteWriter w;
  w.put<std::uint8_t>(kTermReport);
  // wire:prema.term.report pack w
  w.put<std::int64_t>(sent);
  w.put<std::int64_t>(recv);
  return w.take();
}

}  // namespace

/// Per-processor runtime state. The worker thread and (in implicit polling
/// mode) the polling thread both run code that touches it — a policy handler
/// dispatched by the poller enqueues stolen work into the same scheduler the
/// worker is picking from — so the mutable fields are guarded by the node's
/// state lock. Thread-safety analysis cannot see that a lock taken through
/// one alias (the handler's `n.lock_state()`) covers fields named through
/// another (`rt.node->state_mutex()`), so entry points re-establish the fact
/// with assert_state_held().
struct Runtime::NodeRt {
  Context ctx;                    ///< wired in the Runtime ctor, then read-only
  dmcs::Node* node = nullptr;     ///< wired in the Runtime ctor, then read-only
  mol::Mol* mol = nullptr;        ///< wired in the Runtime ctor, then read-only
  ilb::Scheduler sched PREMA_GUARDED_BY(node->state_mutex());
  /// The pointer is wired in the ctor and never reseated; the Balancer's own
  /// state is mutated only under the node's state lock (all its entry points
  /// — poll, on_wire, work_arrived, unit_started — are reached from code
  /// holding it).
  std::unique_ptr<ilb::Balancer> balancer;

  // Slot for the work unit currently being executed (see exec_wrapper).
  mol::Delivery current PREMA_GUARDED_BY(node->state_mutex());
  bool has_current PREMA_GUARDED_BY(node->state_mutex()) = false;

  // Termination-detection state.
  std::uint64_t term_sent PREMA_GUARDED_BY(node->state_mutex()) = 0;
  std::uint64_t term_recv PREMA_GUARDED_BY(node->state_mutex()) = 0;
  std::int64_t reported_sent PREMA_GUARDED_BY(node->state_mutex()) = -1;
  std::int64_t reported_recv PREMA_GUARDED_BY(node->state_mutex()) = -1;
  /// Activity since the last idle report.
  bool did_work PREMA_GUARDED_BY(node->state_mutex()) = true;
  /// Block leaders only (null elsewhere): the tally of the block's reports
  /// and of its members' acks to the current wave.
  std::unique_ptr<TermCoordinator> block PREMA_GUARDED_BY(node->state_mutex());

  /// Service mode only: this rank's arrival stream (null otherwise). Created
  /// in run_service before the workers start; the stream state is advanced
  /// only from service handlers, which hold the node's state lock.
  std::unique_ptr<service::ArrivalGenerator> arrivals
      PREMA_GUARDED_BY(node->state_mutex());

  /// Service mode only: index of the next ServiceConfig::policy_switches
  /// entry this rank has yet to apply (the schedule is sorted by time).
  std::size_t next_switch PREMA_GUARDED_BY(node->state_mutex()) = 0;

  /// Tell the analysis the node's state lock is held. Used where the lock
  /// was demonstrably taken through an alias the analysis cannot connect to
  /// this struct's guard expression (see struct comment).
  void assert_state_held() const PREMA_ASSERT_CAPABILITY(node->state_mutex()) {}

  [[nodiscard]] std::uint64_t eff_sent() const
      PREMA_REQUIRES(node->state_mutex()) {
    return node->stats().sent - term_sent;
  }
  [[nodiscard]] std::uint64_t eff_recv() const
      PREMA_REQUIRES(node->state_mutex()) {
    return node->stats().received - term_recv;
  }
  [[nodiscard]] bool locally_quiet() const PREMA_REQUIRES(node->state_mutex()) {
    // transport_quiet guards the counting wave against reliable-delivery
    // state: a message that was acked into a resequencing buffer (or is
    // awaiting retransmit) is counted as in-flight even though no inbox
    // holds it yet, so a wave cannot balance while recovery is pending.
    return !sched.has_work() && !node->executing() && node->inbox_size() == 0 &&
           node->transport_quiet();
  }
};

/// Counting-wave state of one coordinator, used at both levels of the tree:
/// rank 0 keeps one over the blocks (Runtime::term_), and every leader keeps
/// one over its block's members (NodeRt::block).
struct Runtime::TermCoordinator {
  explicit TermCoordinator(int slots)
      : sent(static_cast<std::size_t>(slots), -1),
        recv(static_cast<std::size_t>(slots), -1) {}

  /// Each slot's last report (-1: never reported): a member's idle report at
  /// a leader, a block's forwarded sums at rank 0. Written only by
  /// term_record_report, which keeps the three running tallies below in step
  /// with them, so the wave check is O(1) rather than a pass over all slots.
  std::vector<std::int64_t> sent;
  std::vector<std::int64_t> recv;
  int reported = 0;           ///< slots that are >= 0
  std::int64_t sent_sum = 0;  ///< sum of max(0, sent[i])
  std::int64_t recv_sum = 0;  ///< sum of max(0, recv[i])

  /// The wave being tallied: rank 0's global wave, or a leader's fan-in of
  /// its members' acks for that wave.
  std::uint64_t wave = 0;
  bool wave_active = false;
  int acks = 0;  ///< ranks covered by the acks tallied so far
  bool all_idle = true;
  std::uint64_t ack_sent_sum = 0;
  std::uint64_t ack_recv_sum = 0;
  std::uint64_t snap_sent_sum = 0;  ///< rank 0: the wave's report-sum anchor
  bool retry_armed = false;         ///< rank 0: a re-probe timer is pending
  bool forward_armed = false;       ///< leader: a forward timer is pending
};

class Runtime::NodeProgram final : public dmcs::Program {
 public:
  NodeProgram(Runtime& rt, NodeRt& node) : rt_(rt), node_(node) {}

  void main(dmcs::Node&) override {
    node_.balancer->init();
    if (rt_.main_) rt_.main_(node_.ctx);
    if (rt_.svc_) rt_.service_start(node_);
  }

  bool service(dmcs::Node& n) override {
    auto lock = n.lock_state();
    node_.assert_state_held();  // n is node_.node; see NodeRt's struct comment
    node_.balancer->poll();
    auto d = node_.sched.pick();
    if (!d) return false;
    node_.current = std::move(*d);
    node_.has_current = true;
    lock.unlock();
    n.execute(Message{rt_.exec_h_, n.rank(), MsgKind::kApp, {}}, [this, &n] {
      auto g = n.lock_state();
      node_.assert_state_held();
      node_.sched.complete();
      node_.did_work = true;
    });
    {
      auto g = n.lock_state();
      node_.balancer->unit_started();
    }
    return true;
  }

  void on_idle(dmcs::Node& n) override {
    auto g = n.lock_state();
    node_.assert_state_held();
    node_.balancer->poll();
    rt_.term_on_idle(node_);
  }

 private:
  Runtime& rt_;
  NodeRt& node_;
};

Runtime::Runtime(dmcs::Machine& machine, const RuntimeConfig& cfg) : machine_(machine) {
  if (cfg.trace.enabled) machine_.enable_tracing(cfg.trace);
  mol_layer_ = std::make_unique<mol::MolLayer>(machine_);

  exec_h_ = machine_.registry().add("prema.exec", [this](dmcs::Node& n, Message&& m) {
    exec_wrapper(n, std::move(m));
  });
  policy_h_ = machine_.registry().add("ilb.policy", [this](dmcs::Node& n, Message&& m) {
    auto g = n.lock_state();
    rt(n.rank()).balancer->on_wire(std::move(m));
  });
  term_h_ = machine_.registry().add("prema.term", [this](dmcs::Node& n, Message&& m) {
    auto g = n.lock_state();
    term_on_wire(rt(n.rank()), std::move(m));
  });
  // Service-mode timer handlers (empty payloads; the handler id itself is
  // the message). Registered unconditionally so the wire manifest holds in
  // run-to-quiescence builds too; they only ever fire under run_service.
  svc_arrival_h_ =
      machine_.registry().add("service.arrival", [this](dmcs::Node& n, Message&&) {
        auto g = n.lock_state();
        service_on_arrival(rt(n.rank()));
      });
  svc_epoch_h_ =
      machine_.registry().add("service.epoch", [this](dmcs::Node& n, Message&&) {
        auto g = n.lock_state();
        service_on_epoch(rt(n.rank()));
      });

  // Construction is single-threaded (no workers yet); the assert only tells
  // the thread-safety analysis so.
  assert_coord_held();
  const int nprocs = machine_.nprocs();
  term_ = std::make_unique<TermCoordinator>((nprocs + kTermBlock - 1) / kTermBlock);

  nodes_.reserve(static_cast<std::size_t>(nprocs));
  for (ProcId p = 0; p < nprocs; ++p) {
    auto node_rt = std::make_unique<NodeRt>();
    node_rt->node = &machine_.node(p);
    node_rt->mol = &mol_layer_->at(p);
    node_rt->ctx.node_ = node_rt->node;
    node_rt->ctx.mol_ = node_rt->mol;
    if (is_leader(p)) {
      node_rt->assert_state_held();  // single-threaded, as above
      node_rt->block = std::make_unique<TermCoordinator>(block_size(p, nprocs));
    }
    node_rt->balancer = std::make_unique<ilb::Balancer>(
        *node_rt->node, *node_rt->mol, node_rt->sched,
        cfg.policy_factory ? cfg.policy_factory() : ilb::make_policy(cfg.policy),
        cfg.balancer, policy_h_);
    nodes_.push_back(std::move(node_rt));
  }

  for (ProcId p = 0; p < machine_.nprocs(); ++p) {
    NodeRt* r = nodes_[static_cast<std::size_t>(p)].get();
    mol::Mol::Hooks hooks;
    // MOL invokes the hooks with the node's state lock held (see mol.hpp);
    // the analysis cannot see that through the callback boundary.
    hooks.on_delivery = [r](mol::Delivery&& d) {
      r->assert_state_held();
      r->sched.enqueue(std::move(d));
      r->did_work = true;
      r->balancer->work_arrived();
    };
    hooks.take_queued = [r](const mol::MobilePtr& ptr) {
      r->assert_state_held();
      return r->sched.take_queued(ptr);
    };
    hooks.on_installed = [r](const mol::MobilePtr&) {
      r->assert_state_held();
      r->did_work = true;
      r->balancer->work_arrived();
    };
    r->mol->set_hooks(std::move(hooks));
  }

  // Topology accounting is machine-wide and fixed before the run (it gates
  // the migrate wire image — see Mol::enable_topology). Enabled here when
  // the configured policy consumes it; run_service extends this to policies
  // scheduled by mid-window switches.
  bool wants_topology = false;
  for (const auto& nr : nodes_) {
    wants_topology = wants_topology || nr->balancer->policy().wants_topology();
  }
  if (wants_topology) {
    for (const auto& nr : nodes_) nr->mol->enable_topology();
  }
}

Runtime::~Runtime() = default;

Runtime::NodeRt& Runtime::rt(ProcId p) {
  PREMA_CHECK_MSG(p >= 0 && p < static_cast<ProcId>(nodes_.size()), "bad rank");
  return *nodes_[static_cast<std::size_t>(p)];
}

ilb::Balancer& Runtime::balancer_at(ProcId p) { return *rt(p).balancer; }

mol::ObjectHandlerId Runtime::register_object_handler(const std::string& name,
                                                      ObjectHandler fn) {
  PREMA_CHECK_MSG(!ran_, "handlers must be registered before run()");
  for (const auto& existing : object_handler_names_) {
    PREMA_CHECK_MSG(existing != name, "duplicate object-handler name");
  }
  object_handlers_.push_back(std::move(fn));
  object_handler_names_.push_back(name);
  return static_cast<mol::ObjectHandlerId>(object_handlers_.size());  // 1-based
}

void Runtime::exec_wrapper(dmcs::Node& n, Message&&) {
  NodeRt& r = rt(n.rank());
  mol::Delivery d;
  mol::MobileObject* obj = nullptr;
  {
    auto g = n.lock_state();
    r.assert_state_held();
    PREMA_CHECK_MSG(r.has_current, "exec wrapper without a picked unit");
    d = std::move(r.current);
    r.has_current = false;
    obj = r.mol->find(d.target);
  }
  PREMA_CHECK_MSG(obj != nullptr, "executing unit's object is not resident");
  PREMA_CHECK_MSG(d.handler != 0 && d.handler <= object_handlers_.size(),
                  "unknown object handler id");
  ByteReader reader(d.payload);
  if (auto* ts = n.trace()) {
    // Under deferred-cost execution the body runs at activity start, so the
    // span the node just opened can still be annotated with who ran.
    const trace::StrId name = d.handler <= handler_name_ids_.size()
                                  ? handler_name_ids_[d.handler - 1]
                                  : 0;
    ts->work_annotate(name, d.weight);
  }
  object_handlers_[d.handler - 1](r.ctx, *obj, reader, d);
}

double Runtime::run() {
  PREMA_CHECK_MSG(!ran_, "Runtime::run may only be called once");
  ran_ = true;
  if (auto* rec = machine_.tracer()) {
    handler_name_ids_.clear();
    handler_name_ids_.reserve(object_handler_names_.size());
    for (const auto& nm : object_handler_names_) {
      handler_name_ids_.push_back(rec->intern(nm));
    }
  }
  return machine_.run([this](ProcId p) {
    return std::make_unique<NodeProgram>(*this, rt(p));
  });
}

double Runtime::run_service(ServiceConfig svc) {
  PREMA_CHECK_MSG(!ran_, "Runtime::run_service may only be called once");
  PREMA_CHECK_MSG(svc.duration_s > 0.0 && svc.epoch_s > 0.0,
                  "service mode needs positive duration and epoch");
  for (const auto& sw : svc.policy_switches) {
    // NaN fails both comparisons; a switch at or past the deadline would
    // never see an arrival under the new policy.
    PREMA_CHECK_MSG(sw.t >= 0.0 && sw.t < svc.duration_s,
                    "policy switch time must lie in [0, duration_s)");
  }
  PREMA_CHECK_MSG(static_cast<bool>(svc.on_arrival),
                  "service mode needs an on_arrival sink");
  svc_ = std::make_unique<ServiceConfig>(std::move(svc));
  // Apply switches oldest-first, and enable topology accounting up front if
  // any scheduled policy will want it: flipping it mid-run would change the
  // migrate wire image under the running machine.
  std::stable_sort(svc_->policy_switches.begin(), svc_->policy_switches.end(),
                   [](const ServiceConfig::PolicySwitch& a,
                      const ServiceConfig::PolicySwitch& b) { return a.t < b.t; });
  bool switch_wants_topology = false;
  for (const auto& sw : svc_->policy_switches) {
    const auto probe = ilb::make_policy(sw.policy);  // validates the name too
    switch_wants_topology = switch_wants_topology || probe->wants_topology();
  }
  for (ProcId p = 0; p < machine_.nprocs(); ++p) {
    NodeRt& r = rt(p);
    // Pre-run is single-threaded (no workers yet); the assert only tells the
    // thread-safety analysis so, matching the ctor's assert_coord_held.
    r.assert_state_held();
    r.arrivals = std::make_unique<service::ArrivalGenerator>(
        svc_->arrivals, p, machine_.nprocs());
    if (switch_wants_topology) r.mol->enable_topology();
  }
  return run();
}

// ---------------------------------------------------------------------------
// Service mode: open-loop arrivals on self-addressed timers, balancer polls
// on an epoch cadence. Timer messages are internal (outside the termination
// counts); the work they inject is ordinary application traffic. Quiescence
// is gated on the clock in term_on_idle, so the Mattern waves cannot conclude
// — and cancel the pending timers — during an arrival lull inside the window.
// ---------------------------------------------------------------------------

void Runtime::service_start(NodeRt& r) {
  auto g = r.node->lock_state();
  r.assert_state_held();
  const double now = r.node->now();
  const double gap = r.arrivals->next_gap(now);
  if (now + gap < svc_->duration_s) {
    r.node->send_self_after(
        gap, Message{svc_arrival_h_, r.node->rank(), MsgKind::kSystem, {}});
  }
  // First epoch tick; the final one is clamped to land exactly on the
  // deadline so every rank's clock provably crosses it (see term_on_idle).
  r.node->send_self_after(
      std::min(svc_->epoch_s, svc_->duration_s),
      Message{svc_epoch_h_, r.node->rank(), MsgKind::kSystem, {}});
}

void Runtime::service_on_arrival(NodeRt& r) {
  r.assert_state_held();  // handler thunk takes the node's state lock
  const double t = r.node->now();
  const service::Arrival a = r.arrivals->next_arrival();
  if (auto* ts = r.node->trace()) {
    ts->record(trace::EventKind::kServiceArrival, t, kNoProc, a.client, a.cost_mflop);
  }
  if (svc_->ledger) svc_->ledger->at(r.node->rank()).record_arrival();
  svc_->on_arrival(r.ctx, a);
  r.did_work = true;
  const double gap = r.arrivals->next_gap(t);
  if (t + gap < svc_->duration_s) {
    r.node->send_self_after(
        gap, Message{svc_arrival_h_, r.node->rank(), MsgKind::kSystem, {}});
  }
}

void Runtime::service_on_epoch(NodeRt& r) {
  r.assert_state_held();  // handler thunk takes the node's state lock
  const double t = r.node->now();
  // Apply any policy switches that have come due (sorted by run_service);
  // the swap happens at the epoch tick, so every rank changes policy at the
  // same epoch boundary of its own clock.
  while (r.next_switch < svc_->policy_switches.size() &&
         t >= svc_->policy_switches[r.next_switch].t) {
    r.balancer->switch_policy(
        ilb::make_policy(svc_->policy_switches[r.next_switch].policy));
    ++r.next_switch;
  }
  r.balancer->poll();
  const double load = r.sched.queued_weight();
  if (auto* ts = r.node->trace()) {
    ts->record(trace::EventKind::kServiceEpoch, t, kNoProc, 0, load);
  }
  const double remaining = svc_->duration_s - t;
  if (remaining > 1e-9) {
    r.node->send_self_after(
        std::min(svc_->epoch_s, remaining),
        Message{svc_epoch_h_, r.node->rank(), MsgKind::kSystem, {}});
  }
}

// ---------------------------------------------------------------------------
// Quiescence detection: counting waves (Mattern), combined through a two-level
// tree. Nodes report their (sent, received) message counts — net of detector
// traffic — to their block leader whenever they go idle after doing
// something; once its whole block has reported, a leader forwards the block's
// sums to rank 0, coalesced by a timer. When rank 0 sees balanced sums it
// probes the leaders and its own block; each leader probes its members and
// returns one summed ack. If every rank is idle with the same balanced sums,
// no application message can be in flight (counts are monotone), and
// termination is certain. Every count in a forwarded sum was observed before
// the wave that compares it began, and every count in a block ack after that
// member's probe arrived, so the two-observation argument is the same as for
// a star.
// ---------------------------------------------------------------------------

void Runtime::term_send(ProcId from, ProcId to, std::vector<std::uint8_t> payload) {
  NodeRt& r = rt(from);
  r.assert_state_held();  // callers hold `from`'s state lock (handler / on_idle)
  ++r.term_sent;
  // The matching receive is counted when the message is processed.
  r.node->send(to, Message{term_h_, from, MsgKind::kSystem, std::move(payload)});
}

void Runtime::term_fan_out(ProcId leader, const std::vector<std::uint8_t>& payload) {
  if (leader == 0) {
    for (ProcId l = kTermBlock; l < machine_.nprocs(); l += kTermBlock) {
      term_send(0, l, payload);
    }
  }
  const ProcId end = leader + block_size(leader, machine_.nprocs());
  for (ProcId p = leader + 1; p < end; ++p) term_send(leader, p, payload);
}

void Runtime::term_on_idle(NodeRt& r) {
  r.assert_state_held();  // reached from on_idle / handlers, lock held
  // Service mode: hold all idle reports until this rank's clock passes the
  // injection deadline. No wave can start before every rank has reported, so
  // quiescence cannot be declared — and the pending arrival/epoch timers
  // cannot be cancelled — during a lull inside the service window. The
  // clamped final epoch tick guarantees the clock does reach the deadline.
  if (svc_ && r.node->now() < svc_->duration_s) return;
  const auto sent = static_cast<std::int64_t>(r.eff_sent());
  const auto recv = static_cast<std::int64_t>(r.eff_recv());
  if (!r.did_work && sent == r.reported_sent && recv == r.reported_recv) return;
  r.did_work = false;
  r.reported_sent = sent;
  r.reported_recv = recv;
  const ProcId me = r.node->rank();
  if (is_leader(me)) {
    term_member_report(r, me, sent, recv);
    return;
  }
  term_send(me, leader_of(me), report_payload(sent, recv));
}

void Runtime::term_record_report(TermCoordinator& c, int slot, std::int64_t sent,
                                 std::int64_t recv) {
  const auto i = static_cast<std::size_t>(slot);
  c.reported += (sent >= 0 ? 1 : 0) - (c.sent[i] >= 0 ? 1 : 0);
  c.sent_sum += std::max<std::int64_t>(0, sent) - std::max<std::int64_t>(0, c.sent[i]);
  c.recv_sum += std::max<std::int64_t>(0, recv) - std::max<std::int64_t>(0, c.recv[i]);
  c.sent[i] = sent;
  c.recv[i] = recv;
}

void Runtime::term_member_report(NodeRt& l, ProcId p, std::int64_t sent,
                                 std::int64_t recv) {
  l.assert_state_held();
  const ProcId leader = l.node->rank();
  PREMA_CHECK_MSG(leader_of(p) == leader, "termination report at the wrong leader");
  TermCoordinator& b = *l.block;
  term_record_report(b, p - leader, sent, recv);
  if (b.reported < static_cast<int>(b.sent.size())) return;  // block not all in
  if (leader != 0) {
    // Coalesce into one forward per kTermForwardDelayS. A self-addressed
    // timer, not term_send: internal messages bypass the sent/received
    // stats, so the detector's own counts stay untouched.
    if (b.forward_armed) return;
    b.forward_armed = true;
    ByteWriter w;
    w.put<std::uint8_t>(kTermForward);
    l.node->send_self_after(kTermForwardDelayS,
                            Message{term_h_, leader, MsgKind::kSystem, w.take()});
    return;
  }
  // Block 0's slot is filled locally: rank 0's state lock *is* the
  // coordinator lock.
  assert_coord_held();
  term_record_report(*term_, 0, b.sent_sum, b.recv_sum);
  term_consider_wave(l);
}

void Runtime::term_consider_wave(NodeRt& r0) {
  r0.assert_state_held();
  PREMA_CHECK(r0.node->rank() == 0);
  assert_coord_held();
  const auto& c = *term_;
  if (c.wave_active || term_detected_) return;
  if (c.reported < static_cast<int>(c.sent.size())) return;  // not all reported
  PREMA_LOG_DEBUG("term: wave check sent=%lld recv=%lld", (long long)c.sent_sum,
                  (long long)c.recv_sum);
  if (c.sent_sum != c.recv_sum) return;

  term_start_wave(r0, static_cast<std::uint64_t>(c.sent_sum));
}

void Runtime::term_open_wave(TermCoordinator& c, std::uint64_t wave) {
  c.wave = wave;
  c.wave_active = true;
  c.acks = 0;
  c.all_idle = true;
  c.ack_sent_sum = 0;
  c.ack_recv_sum = 0;
}

void Runtime::term_start_wave(NodeRt& r0, std::uint64_t snapshot) {
  r0.assert_state_held();
  assert_coord_held();
  auto& c = *term_;
  term_open_wave(c, c.wave + 1);
  ++term_waves_;
  if (auto* ts = r0.node->trace()) {
    ts->record(trace::EventKind::kTermWave, r0.node->now(), kNoProc, c.wave);
  }
  c.snap_sent_sum = snapshot;

  // Rank 0 answers its own probe locally — evaluated *before* the probes go
  // out, because under reliable transport the freshly sent (not yet acked)
  // probes would otherwise make rank 0's own link non-quiet and fail every
  // wave it starts. eff counts are unaffected by the probe sends (term
  // traffic is netted out), so the evaluation order is invisible otherwise.
  const std::uint64_t self_sent = r0.eff_sent();
  const std::uint64_t self_recv = r0.eff_recv();
  const bool self_idle = r0.locally_quiet();

  ByteWriter w;
  w.put<std::uint8_t>(kTermProbe);
  // wire:prema.term.probe pack w
  w.put<std::uint64_t>(c.wave);
  term_fan_out(0, w.bytes());
  term_record_ack(r0, c.wave, self_sent, self_recv, self_idle, 1);
}

bool Runtime::term_tally_ack(TermCoordinator& c, std::uint64_t wave,
                             std::uint64_t sent, std::uint64_t recv, bool idle,
                             int count, int expected) {
  if (!c.wave_active || wave != c.wave) return false;
  c.acks += count;
  c.all_idle = c.all_idle && idle;
  c.ack_sent_sum += sent;
  c.ack_recv_sum += recv;
  if (c.acks < expected) return false;
  c.wave_active = false;
  return true;
}

void Runtime::term_block_ack(NodeRt& l, std::uint64_t wave, std::uint64_t sent,
                             std::uint64_t recv, bool idle) {
  l.assert_state_held();
  TermCoordinator& b = *l.block;
  if (!term_tally_ack(b, wave, sent, recv, idle, 1, static_cast<int>(b.sent.size()))) {
    return;
  }
  ByteWriter w;
  w.put<std::uint8_t>(kTermBlockAck);
  // wire:prema.term.block_ack pack w
  w.put<std::uint64_t>(wave);
  w.put<std::uint64_t>(b.ack_sent_sum);
  w.put<std::uint64_t>(b.ack_recv_sum);
  w.put<std::uint8_t>(b.all_idle ? 1 : 0);
  w.put<std::int32_t>(b.acks);
  term_send(l.node->rank(), 0, w.take());
}

void Runtime::term_record_ack(NodeRt& r0, std::uint64_t wave, std::uint64_t sent,
                              std::uint64_t recv, bool idle, int count) {
  r0.assert_state_held();
  assert_coord_held();
  auto& c = *term_;
  if (term_detected_ ||
      !term_tally_ack(c, wave, sent, recv, idle, count, machine_.nprocs())) {
    return;
  }
  PREMA_LOG_DEBUG("term: wave %llu done idle=%d acks=%llu/%llu snap=%llu",
                  (unsigned long long)wave, (int)c.all_idle,
                  (unsigned long long)c.ack_sent_sum,
                  (unsigned long long)c.ack_recv_sum,
                  (unsigned long long)c.snap_sent_sum);
  if (!c.all_idle || c.ack_sent_sum != c.ack_recv_sum) {
    // Still active. Under reliable transport a wave can fail on *transient*
    // recovery state — a node awaiting the ack of its last term report, or a
    // message parked in a resequencing buffer — after which no count ever
    // changes again, so no report will re-trigger a wave. Re-probe on a
    // timer.
    if (r0.node->reliable_transport()) {
      term_schedule_retry(r0);
      return;
    }
    // Without it, a report that landed *while this wave was in flight* was
    // absorbed by the wave_active gate above and will never be re-examined:
    // if that report carried the final counts, the machine goes silent with
    // no trigger left and termination is missed. Re-examine the report sums
    // now; if they are not balanced yet, the next report re-triggers as
    // before (a no-op here, preserving fault-free event sequences).
    term_consider_wave(r0);
    return;
  }
  if (c.ack_sent_sum == c.snap_sent_sum) {
    // Two observations with identical monotone counts and every processor
    // idle in between: nothing is in flight anywhere. Terminated.
    term_detected_ = true;
    ByteWriter w;
    w.put<std::uint8_t>(kTermDone);
    term_fan_out(0, w.bytes());
    // Locally wind down rank 0: no further balancing wakeups.
    r0.balancer->stop();
    r0.node->cancel_timers();
    return;
  }
  // Balanced and idle but the counts moved past our snapshot (Mattern's
  // stale-wave case): confirm with a fresh wave anchored at what we just saw.
  term_start_wave(r0, c.ack_sent_sum);
}

void Runtime::term_schedule_retry(NodeRt& r0) {
  r0.assert_state_held();
  assert_coord_held();
  auto& c = *term_;
  if (c.retry_armed) return;
  c.retry_armed = true;
  ByteWriter w;
  w.put<std::uint8_t>(kTermRetry);
  // A self-addressed timer, not term_send: internal messages bypass the
  // sent/received stats, so the detector's own counts stay untouched.
  r0.node->send_self_after(kTermRetryDelayS,
                           Message{term_h_, 0, MsgKind::kSystem, w.take()});
}

void Runtime::term_on_wire(NodeRt& r, Message&& msg) {
  r.assert_state_held();  // handler thunk takes the node's state lock
  // Timer (internal) messages were never counted as received, so they must
  // not be netted out either.
  if (!msg.internal) ++r.term_recv;
  ByteReader reader(msg.payload);
  const auto tag = reader.get<std::uint8_t>();
  const ProcId me = r.node->rank();
  switch (tag) {
    case kTermReport: {
      // wire:prema.term.report unpack reader
      const auto sent = reader.get<std::int64_t>();
      const auto recv = reader.get<std::int64_t>();
      if (!is_leader(msg.src)) {
        term_member_report(r, msg.src, sent, recv);
        return;
      }
      // A leader's report is its block's forwarded sums.
      PREMA_CHECK_MSG(me == 0, "block forward at non-coordinator");
      assert_coord_held();
      term_record_report(*term_, msg.src / kTermBlock, sent, recv);
      term_consider_wave(r);
      return;
    }
    case kTermProbe: {
      // wire:prema.term.probe unpack reader
      const auto wave = reader.get<std::uint64_t>();
      const std::uint64_t sent = r.eff_sent();
      const std::uint64_t recv = r.eff_recv();
      const bool idle = r.locally_quiet();
      if (is_leader(me)) {
        // A leader answers for its whole block. Its own ack is evaluated
        // before it passes the probe on, for the reason term_start_wave
        // gives for rank 0.
        term_open_wave(*r.block, wave);
        term_fan_out(me, msg.payload);
        term_block_ack(r, wave, sent, recv, idle);
        return;
      }
      ByteWriter w;
      w.put<std::uint8_t>(kTermAck);
      // wire:prema.term.ack pack w
      w.put<std::uint64_t>(wave);
      w.put<std::uint64_t>(sent);
      w.put<std::uint64_t>(recv);
      w.put<std::uint8_t>(idle ? 1 : 0);
      term_send(me, leader_of(me), w.take());
      return;
    }
    case kTermAck: {
      PREMA_CHECK_MSG(is_leader(me), "termination ack at non-leader");
      // wire:prema.term.ack unpack reader
      const auto wave = reader.get<std::uint64_t>();
      const auto sent = reader.get<std::uint64_t>();
      const auto recv = reader.get<std::uint64_t>();
      const bool idle = reader.get<std::uint8_t>() != 0;
      if (me == 0) {
        term_record_ack(r, wave, sent, recv, idle, 1);
      } else {
        term_block_ack(r, wave, sent, recv, idle);
      }
      return;
    }
    case kTermBlockAck: {
      PREMA_CHECK_MSG(me == 0, "block ack at non-coordinator");
      // wire:prema.term.block_ack unpack reader
      const auto wave = reader.get<std::uint64_t>();
      const auto sent = reader.get<std::uint64_t>();
      const auto recv = reader.get<std::uint64_t>();
      const bool idle = reader.get<std::uint8_t>() != 0;
      const auto count = reader.get<std::int32_t>();
      term_record_ack(r, wave, sent, recv, idle, count);
      return;
    }
    case kTermDone:
      // The run is over: pass it down the tree, then silence balancing
      // retries so their timers do not keep the machine (and its idle
      // clocks) running.
      if (is_leader(me)) term_fan_out(me, msg.payload);
      r.balancer->stop();
      r.node->cancel_timers();
      return;
    case kTermRetry: {
      PREMA_CHECK_MSG(me == 0, "termination retry at non-coordinator");
      assert_coord_held();
      term_->retry_armed = false;
      if (!term_detected_ && !term_->wave_active) term_consider_wave(r);
      return;
    }
    case kTermForward: {
      // The forward timer fires: send rank 0 the block's sums in a member's
      // report format (rank 0 tells the two apart by the sender, since a
      // leader never reports to anyone but itself).
      TermCoordinator& b = *r.block;
      b.forward_armed = false;
      term_send(me, 0, report_payload(b.sent_sum, b.recv_sum));
      return;
    }
    default:
      PREMA_CHECK_MSG(false, "unknown termination message tag");
  }
}

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

// MOL's public methods lock the node state themselves (see mol.hpp), so these
// veneers are plain delegations.

mol::MobilePtr Context::add_object(std::unique_ptr<mol::MobileObject> obj) {
  return mol_->add_object(std::move(obj));
}

void Context::message(const mol::MobilePtr& target, mol::ObjectHandlerId handler,
                      std::vector<std::uint8_t> payload, double weight) {
  mol_->message(target, handler, std::move(payload), weight);
}

}  // namespace prema
