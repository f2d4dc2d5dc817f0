#include "dmcs/sim_machine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/network_model.hpp"
#include "support/assert.hpp"
#include "support/log.hpp"

namespace prema::dmcs {

using util::TimeCategory;

namespace {

/// CPU cost of a polling wakeup that finds pending system messages.
constexpr double kPollTickCostS = 15e-6;

}  // namespace

SimNode::SimNode(SimMachine& machine, ProcId rank, int nprocs)
    : Node(rank, nprocs),
      machine_(machine),
      eng_(machine.engine()),
      proc_(machine.engine().proc(rank)),
      channel_clock_(static_cast<std::size_t>(nprocs), 0.0) {}

double SimNode::now() const { return proc_.clock(); }

sim::SimTime SimNode::clock() const { return proc_.clock(); }

util::Rng& SimNode::rng() { return proc_.rng(); }

util::TimeLedger& SimNode::ledger() { return proc_.ledger(); }

const PollingConfig& SimNode::polling() const { return machine_.polling(); }

HandlerRegistry& SimNode::registry() { return machine_.registry(); }

void SimNode::start(Program* program) {
  program_ = program;
  if (machine_.reliable()) {
    rlink_ = std::make_unique<ReliableLink>(rank_, nprocs_);
  }
}

bool SimNode::reliable_transport() const { return machine_.reliable(); }

bool SimNode::transport_quiet() const { return !rlink_ || rlink_->quiet(); }

bool SimNode::peer_degraded(ProcId p) const {
  return dmcs::peer_degraded(machine_.fault_plan(), rlink_.get(), rank_, p);
}

void SimNode::send(ProcId dst, Message msg) {
  PREMA_CHECK_MSG(dst >= 0 && dst < nprocs_, "send to invalid rank");
  msg.src = rank_;
  if (capturing_) {
    // The sender is logically still inside a work unit whose span ends at the
    // activity's completion; hold the message until then.
    deferred_sends_.emplace_back(dst, std::move(msg));
    return;
  }
  do_send(dst, std::move(msg));
}

void SimNode::do_send(ProcId dst, Message&& msg) {
  proc_.advance(TimeCategory::kMessaging, sim::net::send_cpu(msg.size_bytes()));
  ++stats_.sent;  // logical sends only: retransmits and acks never re-count
  if (trace_) {
    trace_->record(trace::EventKind::kMessageSend, proc_.clock(), dst, msg.size_bytes(),
                   0.0, 0, msg.kind == MsgKind::kSystem);
  }
  if (rlink_ != nullptr && dst != rank_) {
    rlink_->stamp(dst, msg, proc_.clock());
    wire_send(dst, std::move(msg));
    schedule_retransmit();
    return;
  }
  wire_send(dst, std::move(msg));
}

void SimNode::wire_send(ProcId dst, Message&& msg) {
  SimNode& target = machine_.sim_node(dst);
  const double transfer =
      dst == rank_ ? 1e-9 : sim::net::transfer_time(msg.size_bytes());
  // A self-send never touches the wire; without a plan every send gets the
  // default fate: one intact copy, on time, in order.
  auto* plan = dst == rank_ ? nullptr : machine_.fault_plan();
  const fault::WireFate fate =
      plan != nullptr ? plan->on_send(rank_, dst) : fault::WireFate{};
  // Retransmits fire at engine time, which may be ahead of this processor's
  // charged clock; never schedule an arrival in the past.
  const sim::SimTime base = std::max(proc_.clock(), eng_.now());
  const std::size_t bytes = msg.size_bytes();
  const auto trace_fault = [&](trace::FaultType type) {
    if (trace_) {
      trace_->record(trace::EventKind::kFault, base, dst, bytes,
                     static_cast<double>(type));
    }
  };
  if (fate.copies == 0) {
    trace_fault(trace::FaultType::kDrop);
    if (rlink_ != nullptr && (msg.rflags & Message::kReliable) != 0) {
      // The copy died on the wire, but the timeout should still run from
      // when it would have arrived, not from the (possibly much earlier)
      // stamp time — otherwise a backed-up link retransmits before the
      // first copy could ever have been acked.
      rlink_->note_wire_time(dst, msg.seq, base + transfer);
    }
    return;
  }
  if (fate.copies > 1) trace_fault(trace::FaultType::kDuplicate);
  if (fate.corrupt) trace_fault(trace::FaultType::kCorrupt);
  if (fate.extra_delay_s > 0.0) trace_fault(trace::FaultType::kDelay);
  if (fate.reorder) trace_fault(trace::FaultType::kReorder);
  for (int i = 0; i < fate.copies; ++i) {
    Message m = (i + 1 == fate.copies) ? std::move(msg) : msg;
    if (fate.corrupt) corrupt_in_flight(m);
    sim::SimTime arrival = base + transfer + fate.extra_delay_s;
    if (fate.reorder) {
      // Reordered copies bypass the FIFO channel clamp: each lands at an
      // independently jittered point inside the reorder window.
      arrival = plan->release_time(dst, arrival + fate.reorder_jitter_s[i & 1]);
    } else {
      if (plan != nullptr) arrival = plan->release_time(dst, arrival);
      auto& chan = channel_clock_[static_cast<std::size_t>(dst)];
      arrival = std::max(arrival, chan + 1e-12);
      chan = arrival;
    }
    if (rlink_ != nullptr && (m.rflags & Message::kReliable) != 0) {
      // Start the retransmit clock from the copy's actual wire arrival:
      // under a burst the per-link FIFO can hold a message for far longer
      // than the RTO, and timing out while it is still queued just injects
      // redundant copies behind it.
      rlink_->note_wire_time(dst, m.seq, arrival);
    }
    eng_.at(arrival, [&target, m2 = std::move(m)]() mutable {
      target.on_wire(std::move(m2));
    });
  }
}

void SimNode::on_wire(Message&& msg) {
  if (rlink_ == nullptr || msg.internal) {
    on_arrival(std::move(msg));
    return;
  }
  if ((msg.rflags & (Message::kReliable | Message::kBareAck)) != 0) {
    rlink_->on_ack(msg.src, msg.ack);
  }
  if ((msg.rflags & Message::kBareAck) != 0) return;
  if ((msg.rflags & Message::kReliable) == 0) {
    on_arrival(std::move(msg));  // self-sends are never stamped
    return;
  }
  const ProcId peer = msg.src;
  auto res = rlink_->accept(std::move(msg));
  const auto trace_discard = [&](trace::FaultType type) {
    if (trace_) {
      trace_->record(trace::EventKind::kFault, eng_.now(), peer, 0,
                     static_cast<double>(type));
    }
  };
  if (res.corrupt) trace_discard(trace::FaultType::kCorruptDropped);
  if (res.duplicate) trace_discard(trace::FaultType::kDupDropped);
  if (!res.corrupt) send_bare_ack(peer, res.ack_value);
  for (auto& m : res.deliver) on_arrival(std::move(m));
}

void SimNode::send_bare_ack(ProcId to, std::uint32_t cumulative) {
  Message a;
  a.src = rank_;
  a.kind = MsgKind::kSystem;
  a.rflags = Message::kBareAck;
  a.ack = cumulative;
  if (trace_) trace_->record(trace::EventKind::kAck, eng_.now(), to, cumulative);
  // Acks are transport-internal: no stats, no CPU charge, not retransmitted.
  wire_send(to, std::move(a));
}

void SimNode::schedule_retransmit() {
  if (rlink_ == nullptr) return;
  const double d = rlink_->next_deadline();
  if (d >= retx_at_) return;  // an earlier (or equal) wakeup is already armed
  if (retx_event_ != sim::kNoEvent) eng_.cancel(retx_event_);
  retx_at_ = d;
  retx_event_ = eng_.at(std::max(d, eng_.now()), [this] { on_retransmit_timer(); });
}

void SimNode::on_retransmit_timer() {
  retx_event_ = sim::kNoEvent;
  retx_at_ = std::numeric_limits<double>::infinity();
  if (rlink_ == nullptr) return;
  auto due = rlink_->due_retransmits(eng_.now());
  for (auto& r : due) {
    if (trace_) {
      trace_->record(trace::EventKind::kRetransmit, eng_.now(), r.dst, r.msg.seq);
    }
    wire_send(r.dst, std::move(r.msg));
  }
  schedule_retransmit();
}

void SimNode::send_self_after(double delay_s, Message msg) {
  PREMA_CHECK_MSG(delay_s >= 0.0, "negative timer delay");
  msg.src = rank_;
  msg.internal = true;
  const sim::SimTime arrival =
      std::max(proc_.clock(), eng_.now()) + std::max(delay_s, 1e-9);
  timer_events_.push_back(eng_.at(arrival, [this, m = std::move(msg)]() mutable {
    // A pending timer is always listed: cancel_timers() unlists what it
    // cancels, and a cancelled event never fires.
    auto it = std::find(timer_events_.begin(), timer_events_.end(), eng_.firing());
    PREMA_CHECK_MSG(it != timer_events_.end(), "firing timer is not listed");
    *it = timer_events_.back();
    timer_events_.pop_back();
    on_arrival(std::move(m));
  }));
}

void SimNode::cancel_timers() {
  for (const auto id : timer_events_) eng_.cancel(id);
  timer_events_.clear();
}

void SimNode::flush_deferred_sends() {
  auto sends = std::move(deferred_sends_);
  deferred_sends_.clear();
  for (auto& [dst, msg] : sends) do_send(dst, std::move(msg));
}

void SimNode::compute(double mflop, TimeCategory cat) {
  compute_seconds(machine_.config().compute_seconds(mflop), cat);
}

void SimNode::compute_seconds(double seconds, TimeCategory cat) {
  PREMA_CHECK_MSG(seconds >= 0.0, "negative compute cost");
  // Degraded-node emulation: a slowdown factor stretches every charged
  // compute interval (scaled before capture so deferred activities stretch
  // too). Identity when no fault plan is installed.
  if (auto* plan = machine_.fault_plan()) {
    seconds *= plan->compute_factor(rank_);
  }
  if (capturing_) {
    captured_s_ += seconds;
    return;
  }
  const sim::SimTime t0 = proc_.clock();
  proc_.advance(cat, seconds);
  // The (re)partitioner charges its execution here; surface it as a span so
  // the ParMETIS panels show *when* partitioning ran, not just its total.
  if (trace_ && cat == TimeCategory::kPartitionCalc && seconds > 0.0) {
    trace_->span(trace::EventKind::kPartition, t0, seconds);
  }
}

void SimNode::on_arrival(Message&& msg) {
  if (!msg.internal) ++stats_.received;
  const bool system = msg.kind == MsgKind::kSystem;
  inbox_.push_back(std::move(msg));
  if (active_) {
    if (system) schedule_interrupt(eng_.now());
    return;
  }
  ensure_service(std::max(eng_.now(), proc_.clock()));
}

void SimNode::ensure_service(sim::SimTime t) {
  if (pending_service_ != sim::kNoEvent) {
    if (t >= pending_service_time_) return;
    eng_.cancel(pending_service_);
  }
  pending_service_time_ = t;
  pending_service_ = eng_.at(t, [this, t] { do_service(t); });
}

void SimNode::drain_inbox() {
  while (!inbox_.empty()) {
    Message msg = std::move(inbox_.front());
    inbox_.pop_front();
    proc_.advance(TimeCategory::kMessaging, sim::net::recv_cpu(msg.size_bytes()));
    if (trace_) {
      trace_->record(trace::EventKind::kMessageRecv, proc_.clock(), msg.src,
                     msg.size_bytes(), 0.0, 0, msg.kind == MsgKind::kSystem);
    }
    if (msg.kind == MsgKind::kSystem) {
      program_->deliver_system(*this, std::move(msg));
    } else {
      program_->deliver_app(*this, std::move(msg));
    }
  }
}

void SimNode::do_service(sim::SimTime t) {
  pending_service_ = sim::kNoEvent;
  if (active_) return;  // activity completion will run the next pass
  proc_.catch_up(t, wait_cat_);
  drain_inbox();
  while (!active_) {
    if (!program_->service(*this)) break;
  }
  if (active_) return;
  PREMA_CHECK_MSG(inbox_.empty(), "inbox grew during a sequential service pass");
  program_->on_idle(*this);
}

void SimNode::execute(Message&& msg, std::function<void()> on_complete) {
  PREMA_CHECK_MSG(!active_, "execute() while a work unit is already active");
  PREMA_CHECK_MSG(!capturing_, "execute() from inside a work-unit body");
  ++stats_.work_units_executed;

  // The span opens before the body runs so the runtime layer can annotate it
  // (handler name, weight) from inside the dispatch.
  if (trace_) trace_->work_begin(proc_.clock());
  capturing_ = true;
  captured_s_ = 0.0;
  dispatch(std::move(msg));
  capturing_ = false;
  const double duration = captured_s_;

  if (duration <= 0.0) {
    if (trace_) trace_->work_end(proc_.clock());
    flush_deferred_sends();
    if (on_complete) on_complete();
    return;
  }

  active_ = true;
  ++activity_gen_;
  remaining_s_ = duration;
  total_duration_s_ = duration;
  tick_base_ = proc_.clock();
  interrupts_ = 0;
  on_complete_ = std::move(on_complete);
  end_event_ = eng_.at(proc_.clock() + duration,
                       [this, gen = activity_gen_] { finish_activity(gen); });
  // System messages that were already queued when the activity began (e.g.
  // arrived during main()) are picked up at the first polling tick.
  if (polling().mode == PollingMode::kPreemptive && inbox_has_system()) {
    schedule_interrupt(proc_.clock());
  }
}

bool SimNode::inbox_has_system() const {
  return std::any_of(inbox_.begin(), inbox_.end(),
                     [](const Message& m) { return m.kind == MsgKind::kSystem; });
}

void SimNode::schedule_interrupt(sim::SimTime arrival) {
  if (polling().mode != PollingMode::kPreemptive) return;
  const double period = polling().interval_s;
  double k = std::ceil((arrival - tick_base_) / period);
  if (k < 1.0) k = 1.0;
  const sim::SimTime tick = tick_base_ + k * period;
  if (tick >= proc_.clock() + remaining_s_) return;  // handled at completion
  eng_.at(tick, [this, gen = activity_gen_] { on_interrupt(gen); });
}

void SimNode::on_interrupt(std::uint64_t gen) {
  if (!active_ || gen != activity_gen_) return;
  if (!inbox_has_system()) return;  // an earlier tick already serviced them

  const double elapsed = std::max(0.0, eng_.now() - proc_.clock());
  PREMA_CHECK_MSG(elapsed <= remaining_s_ + 1e-9, "interrupt past activity end");
  proc_.advance(TimeCategory::kComputation, elapsed);
  remaining_s_ = std::max(0.0, remaining_s_ - elapsed);

  proc_.advance(TimeCategory::kPolling, kPollTickCostS);
  ++interrupts_;
  if (trace_) trace_->record(trace::EventKind::kPollWakeup, proc_.clock());

  // Hand every queued system message to the program; application messages
  // stay queued for the next service pass (single-threaded model preserved).
  for (auto it = inbox_.begin(); it != inbox_.end();) {
    if (it->kind != MsgKind::kSystem) {
      ++it;
      continue;
    }
    Message msg = std::move(*it);
    it = inbox_.erase(it);
    proc_.advance(TimeCategory::kMessaging, sim::net::recv_cpu(msg.size_bytes()));
    if (trace_) {
      trace_->record(trace::EventKind::kMessageRecv, proc_.clock(), msg.src,
                     msg.size_bytes(), 0.0, 0, true);
    }
    program_->deliver_system(*this, std::move(msg));
  }

  eng_.cancel(end_event_);
  end_event_ = eng_.at(proc_.clock() + remaining_s_,
                       [this, gen] { finish_activity(gen); });
}

void SimNode::finish_activity(std::uint64_t gen) {
  if (!active_ || gen != activity_gen_) return;
  end_event_ = sim::kNoEvent;
  proc_.advance(TimeCategory::kComputation, remaining_s_);
  remaining_s_ = 0.0;
  // Close the span before the bulk silent-tick charge below: those ticks
  // belong to the whole activity, not to its final instant.
  if (trace_) trace_->work_end(proc_.clock());

  if (polling().mode == PollingMode::kPreemptive) {
    const auto ticks =
        static_cast<int>(std::floor(total_duration_s_ / polling().interval_s));
    const int silent = std::max(0, ticks - interrupts_);
    if (silent > 0) {
      proc_.advance(TimeCategory::kPolling,
                    static_cast<double>(silent) * kSilentPollTickCostS);
    }
  }

  active_ = false;
  flush_deferred_sends();
  auto done = std::move(on_complete_);
  on_complete_ = nullptr;
  if (done) done();
  do_service(proc_.clock());
}

SimMachine::SimMachine(sim::MachineConfig cfg, PollingConfig polling)
    : engine_(cfg), polling_(polling) {
  nodes_.reserve(static_cast<std::size_t>(cfg.nprocs));
  for (ProcId p = 0; p < cfg.nprocs; ++p) {
    nodes_.push_back(std::make_unique<SimNode>(*this, p, cfg.nprocs));
  }
}

SimNode& SimMachine::sim_node(ProcId p) {
  PREMA_CHECK_MSG(p >= 0 && p < nprocs(), "node id out of range");
  return *nodes_[static_cast<std::size_t>(p)];
}

const util::TimeLedger& SimMachine::ledger(ProcId p) const {
  return engine_.proc(p).ledger();
}

double SimMachine::run(const ProgramFactory& factory) {
  PREMA_CHECK_MSG(!ran_, "SimMachine::run may only be called once");
  ran_ = true;

  programs_.reserve(nodes_.size());
  for (ProcId p = 0; p < nprocs(); ++p) {
    programs_.push_back(factory(p));
    nodes_[static_cast<std::size_t>(p)]->start(programs_.back().get());
  }
  for (ProcId p = 0; p < nprocs(); ++p) {
    SimNode* n = nodes_[static_cast<std::size_t>(p)].get();
    engine_.at(0.0, [n] {
      n->program_->main(*n);
      n->do_service(n->proc_.clock());
    });
  }

  run_stats_ = engine_.run(max_events_);
  PREMA_CHECK_MSG(!run_stats_.hit_event_limit,
                  "emulation exceeded the event budget (protocol livelock?)");

  sim::SimTime makespan = 0.0;
  for (ProcId p = 0; p < nprocs(); ++p) {
    makespan = std::max(makespan, nodes_[static_cast<std::size_t>(p)]->clock());
  }
  for (ProcId p = 0; p < nprocs(); ++p) {
    SimNode& n = *nodes_[static_cast<std::size_t>(p)];
    engine_.proc(p).catch_up(makespan, n.wait_category());
  }
  return makespan;
}

}  // namespace prema::dmcs
