#include "dmcs/thread_machine.hpp"

#include <chrono>

#include "support/assert.hpp"
#include "support/log.hpp"

namespace prema::dmcs {

using util::TimeCategory;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Busy-spin for `seconds` (durations here are micro/milliseconds; sleeping
/// would be too coarse and would free the core, which misrepresents compute).
void spin_for(double seconds) {
  const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
  while (Clock::now() < until) {
    // burn
  }
}

}  // namespace

ThreadNode::ThreadNode(ThreadMachine& machine, ProcId rank, int nprocs,
                       std::uint64_t seed)
    : Node(rank, nprocs), machine_(machine), rng_(seed) {}

double ThreadNode::now() const { return machine_.elapsed_s(); }

const PollingConfig& ThreadNode::polling() const { return machine_.config().polling; }

HandlerRegistry& ThreadNode::registry() { return machine_.registry(); }

void ThreadNode::charge(TimeCategory cat, double seconds) {
  util::LockGuard g(ledger_mutex_);
  ledger_.charge(cat, seconds);
}

void ThreadNode::send(ProcId dst, Message msg) {
  PREMA_CHECK_MSG(dst >= 0 && dst < nprocs_, "send to invalid rank");
  msg.src = rank_;
  ++stats_.sent;  // logical sends only: retransmits and acks never re-count
  if (trace_) {
    trace_->record(trace::EventKind::kMessageSend, now(), dst, msg.size_bytes(), 0.0, 0,
                   msg.kind == MsgKind::kSystem);
  }
  if (rlink_ != nullptr && dst != rank_) {
    // In-flight accounting moves to the receiver: transport_accept bumps the
    // counter per message actually released to an inbox. Until the ack lands
    // the sender's link is non-quiet, which quiescent() also checks.
    rlink_->stamp(dst, msg, now());
    wire_send(dst, std::move(msg));
    return;
  }
  machine_.inflight_.fetch_add(1, std::memory_order_acq_rel);
  static_cast<ThreadNode&>(machine_.node(dst)).enqueue(std::move(msg));
}

bool ThreadNode::peer_degraded(ProcId p) const {
  return dmcs::peer_degraded(machine_.fault_plan(), rlink_.get(), rank_, p);
}

void ThreadNode::wire_send(ProcId dst, Message&& msg) {
  auto& target = static_cast<ThreadNode&>(machine_.node(dst));
  // Only reliable traffic takes this path, and rlink_ implies an active plan.
  const fault::WireFate fate = machine_.fault_plan()->on_send(rank_, dst);
  const std::size_t bytes = msg.size_bytes();
  const auto trace_fault = [&](trace::FaultType type) {
    if (trace_) {
      trace_->record(trace::EventKind::kFault, now(), dst, bytes,
                     static_cast<double>(type));
    }
  };
  if (fate.copies == 0) {
    trace_fault(trace::FaultType::kDrop);
    return;
  }
  // Delay/reorder knobs are sim-only; real thread scheduling already
  // reorders freely. Drop, duplication, and corruption apply here.
  if (fate.copies > 1) trace_fault(trace::FaultType::kDuplicate);
  if (fate.corrupt) trace_fault(trace::FaultType::kCorrupt);
  for (int i = 0; i < fate.copies; ++i) {
    Message m = (i + 1 == fate.copies) ? std::move(msg) : msg;
    if (fate.corrupt) corrupt_in_flight(m);
    target.transport_accept(std::move(m));
  }
}

void ThreadNode::transport_accept(Message&& msg) {
  const ProcId peer = msg.src;
  if ((msg.rflags & (Message::kReliable | Message::kBareAck)) != 0) {
    rlink_->on_ack(peer, msg.ack);
  }
  if ((msg.rflags & Message::kBareAck) != 0) return;
  if ((msg.rflags & Message::kReliable) == 0) {
    machine_.inflight_.fetch_add(1, std::memory_order_acq_rel);
    enqueue(std::move(msg));
    return;
  }
  auto res = rlink_->accept(std::move(msg));
  const auto trace_discard = [&](trace::FaultType type) {
    if (trace_) {
      trace_->record(trace::EventKind::kFault, now(), peer, 0, static_cast<double>(type));
    }
  };
  if (res.corrupt) trace_discard(trace::FaultType::kCorruptDropped);
  if (res.duplicate) trace_discard(trace::FaultType::kDupDropped);
  // Release before acking: once the sender sees this ack its link goes
  // quiet, so every message the ack covers must already be counted
  // in-flight or the quiescence detector could fire early.
  for (auto& m : res.deliver) {
    machine_.inflight_.fetch_add(1, std::memory_order_acq_rel);
    enqueue(std::move(m));
  }
  if (!res.corrupt) {
    Message a;
    a.src = rank_;
    a.kind = MsgKind::kSystem;
    a.rflags = Message::kBareAck;
    a.ack = res.ack_value;
    if (trace_) trace_->record(trace::EventKind::kAck, now(), peer, res.ack_value);
    wire_send(peer, std::move(a));
  }
}

void ThreadNode::drain_retransmits() {
  if (rlink_ == nullptr) return;
  auto due = rlink_->due_retransmits(now());
  for (auto& r : due) {
    if (trace_) trace_->record(trace::EventKind::kRetransmit, now(), r.dst, r.msg.seq);
    wire_send(r.dst, std::move(r.msg));
  }
}

void ThreadNode::send_self_after(double delay_s, Message msg) {
  msg.src = rank_;
  msg.internal = true;
  machine_.inflight_.fetch_add(1, std::memory_order_acq_rel);
  const auto due = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(delay_s));
  util::LockGuard g(timed_mutex_);
  timed_.emplace_back(due, std::move(msg));
}

void ThreadNode::cancel_timers() {
  util::LockGuard g(timed_mutex_);
  machine_.inflight_.fetch_sub(static_cast<std::int64_t>(timed_.size()),
                               std::memory_order_acq_rel);
  timed_.clear();
}

void ThreadNode::drain_due_timers() {
  std::vector<Message> due;
  {
    util::LockGuard g(timed_mutex_);
    const auto now = Clock::now();
    for (auto it = timed_.begin(); it != timed_.end();) {
      if (it->first <= now) {
        due.push_back(std::move(it->second));
        it = timed_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& msg : due) enqueue(std::move(msg));
}

void ThreadNode::enqueue(Message&& msg) {
  {
    util::LockGuard g(inbox_mutex_);
    inbox_.push_back(std::move(msg));
  }
  inbox_cv_.notify_all();
}

void ThreadNode::compute(double mflop, TimeCategory cat) {
  compute_seconds(mflop / machine_.config().mflops, cat);
}

void ThreadNode::compute_seconds(double seconds, TimeCategory cat) {
  PREMA_CHECK_MSG(seconds >= 0.0, "negative compute cost");
  // Degraded-node emulation: stretch compute by the plan's slowdown factor.
  if (auto* plan = machine_.fault_plan()) {
    seconds *= plan->compute_factor(rank_);
  }
  const double t0 = now();
  spin_for(seconds);
  charge(cat, seconds);
  if (trace_ && cat == TimeCategory::kPartitionCalc && seconds > 0.0) {
    trace_->span(trace::EventKind::kPartition, t0, seconds);
  }
}

void ThreadNode::execute(Message&& msg, std::function<void()> on_complete) {
  // On the real machine the body simply runs; preemption is provided by the
  // concurrently running polling thread, not by the backend.
  executing_.store(true, std::memory_order_release);
  ++stats_.work_units_executed;
  if (trace_) trace_->work_begin(now());
  dispatch(std::move(msg));
  if (trace_) trace_->work_end(now());
  executing_.store(false, std::memory_order_release);
  if (on_complete) on_complete();
}

int ThreadNode::drain(bool system_only) {
  int handled = 0;
  for (;;) {
    Message msg;
    {
      util::LockGuard g(inbox_mutex_);
      if (system_only) {
        auto it = inbox_.begin();
        while (it != inbox_.end() && it->kind != MsgKind::kSystem) ++it;
        if (it == inbox_.end()) break;
        msg = std::move(*it);
        inbox_.erase(it);
      } else {
        if (inbox_.empty()) break;
        msg = std::move(inbox_.front());
        inbox_.pop_front();
      }
    }
    if (!msg.internal) ++stats_.received;
    if (trace_) {
      trace_->record(trace::EventKind::kMessageRecv, now(), msg.src, msg.size_bytes(),
                     0.0, 0, msg.kind == MsgKind::kSystem);
    }
    if (msg.kind == MsgKind::kSystem) {
      program_->deliver_system(*this, std::move(msg));
    } else {
      program_->deliver_app(*this, std::move(msg));
    }
    machine_.inflight_.fetch_sub(1, std::memory_order_acq_rel);
    ++handled;
  }
  return handled;
}

void ThreadNode::worker_loop() {
  program_->main(*this);
  while (!machine_.done_.load(std::memory_order_acquire)) {
    drain_due_timers();
    drain_retransmits();
    const auto t0 = Clock::now();
    const int handled = drain(/*system_only=*/false);
    if (handled > 0) {
      charge(TimeCategory::kMessaging, seconds_between(t0, Clock::now()));
    }
    const auto t1 = Clock::now();
    const bool did = program_->service(*this);
    if (!did) charge(TimeCategory::kScheduling, seconds_between(t1, Clock::now()));
    if (did || handled > 0) {
      idle_.store(false, std::memory_order_release);
      continue;
    }
    program_->on_idle(*this);
    idle_.store(true, std::memory_order_release);
    const auto t2 = Clock::now();
    {
      util::UniqueLock g(inbox_mutex_);
      // No wait predicate: a spurious or timed-out wakeup just re-enters the
      // drain loop above, so waiting "at most 1 ms unless something arrives"
      // is all we need.
      if (inbox_.empty()) inbox_cv_.wait_for(g, std::chrono::milliseconds(1));
    }
    charge(TimeCategory::kIdle, seconds_between(t2, Clock::now()));
    idle_.store(false, std::memory_order_release);
  }
}

void ThreadNode::poller_loop() {
  const auto period = std::chrono::duration<double>(polling().interval_s);
  while (!machine_.done_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(period);
    drain_retransmits();
    const auto t0 = Clock::now();
    const int handled = drain(/*system_only=*/true);
    if (handled > 0) {
      charge(TimeCategory::kPolling, seconds_between(t0, Clock::now()));
      if (trace_) trace_->record(trace::EventKind::kPollWakeup, now());
    }
  }
}

ThreadMachine::ThreadMachine(ThreadConfig cfg) : cfg_(cfg) {
  PREMA_CHECK_MSG(cfg_.nprocs > 0, "machine needs at least one processor");
  util::SplitMix64 sm(cfg_.seed);
  nodes_.reserve(static_cast<std::size_t>(cfg_.nprocs));
  for (ProcId p = 0; p < cfg_.nprocs; ++p) {
    nodes_.push_back(std::make_unique<ThreadNode>(*this, p, cfg_.nprocs, sm.next()));
  }
}

Node& ThreadMachine::node(ProcId p) {
  PREMA_CHECK_MSG(p >= 0 && p < nprocs(), "node id out of range");
  return *nodes_[static_cast<std::size_t>(p)];
}

// Post-run accessor: called after run() has joined the worker threads (or
// before it started them), so the ledger is no longer shared.
const util::TimeLedger& ThreadMachine::ledger(ProcId p) const
    PREMA_NO_THREAD_SAFETY_ANALYSIS {
  PREMA_CHECK_MSG(p >= 0 && p < nprocs(), "node id out of range");
  return nodes_[static_cast<std::size_t>(p)]->ledger_;
}

double ThreadMachine::elapsed_s() const {
  return seconds_between(start_, Clock::now());
}

bool ThreadMachine::quiescent() const {
  if (inflight_.load(std::memory_order_acquire) != 0) return false;
  for (const auto& n : nodes_) {
    if (!n->idle_.load(std::memory_order_acquire)) return false;
    // A non-quiet link means an unacked (possibly dropped) message still
    // needs retransmitting, or a resequencing buffer holds data.
    if (n->rlink_ != nullptr && !n->rlink_->quiet()) return false;
  }
  // Check in-flight again: a message sent while we scanned the idle flags
  // would have bumped the counter before waking its target.
  return inflight_.load(std::memory_order_acquire) == 0;
}

double ThreadMachine::run(const ProgramFactory& factory) {
  PREMA_CHECK_MSG(!ran_, "ThreadMachine::run may only be called once");
  ran_ = true;
  start_ = Clock::now();

  programs_.reserve(nodes_.size());
  for (ProcId p = 0; p < nprocs(); ++p) {
    programs_.push_back(factory(p));
    nodes_[static_cast<std::size_t>(p)]->program_ = programs_.back().get();
    if (reliable()) {
      nodes_[static_cast<std::size_t>(p)]->rlink_ =
          std::make_unique<ReliableLink>(p, nprocs());
    }
  }
  for (auto& n : nodes_) {
    n->worker_ = std::thread([node = n.get()] { node->worker_loop(); });
    if (cfg_.polling.mode == PollingMode::kPreemptive) {
      n->poller_ = std::thread([node = n.get()] { node->poller_loop(); });
    }
  }

  // Quiescence must hold across two observations separated by a full idle
  // period before we declare the run finished.
  int stable = 0;
  while (stable < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    stable = quiescent() ? stable + 1 : 0;
  }
  done_.store(true, std::memory_order_release);
  for (auto& n : nodes_) n->inbox_cv_.notify_all();
  for (auto& n : nodes_) {
    if (n->worker_.joinable()) n->worker_.join();
    if (n->poller_.joinable()) n->poller_.join();
  }
  return elapsed_s();
}

}  // namespace prema::dmcs
