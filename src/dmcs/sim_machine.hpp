#pragma once

#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "dmcs/machine.hpp"
#include "dmcs/reliable.hpp"
#include "sim/engine.hpp"

/// \file sim_machine.hpp
/// DMCS backend on the discrete-event cluster emulator. This is what all
/// paper-scale experiments run on (128 virtual processors).
///
/// Semantics of a virtual processor:
///  - Messages are delivered into an inbox at their modeled arrival time.
///  - A *service pass* (the runtime's poll point) drains the inbox — charging
///    per-message receive cost to Messaging — and then asks the Program to do
///    one unit of local work.
///  - Work units run under *deferred-cost execution*: the handler body runs
///    at the start of the activity (its data-structure work is real), the
///    Mflop it declares via Node::compute defines the activity's duration,
///    and messages it sends are released when the activity completes.
///  - In preemptive polling mode (paper §4.2), a system message arriving
///    during an activity is handled at the next polling-thread tick: the
///    emulator schedules an interrupt at the tick boundary, charges the
///    wakeup to Polling, runs the system handler inline, and pushes the
///    activity's completion out by the time consumed. Ticks that would find
///    no messages are charged in bulk when the activity ends, so the event
///    count stays O(#system messages), not O(duration / tick).
///  - In explicit mode (paper §4.1) system messages simply wait for the next
///    service pass, reproducing the "heavy work units delay message
///    processing" pathology the paper measures.

namespace prema::dmcs {

class SimMachine;

class SimNode final : public Node {
 public:
  SimNode(SimMachine& machine, ProcId rank, int nprocs);

  [[nodiscard]] double now() const override;
  [[nodiscard]] util::Rng& rng() override;
  [[nodiscard]] util::TimeLedger& ledger() override;
  [[nodiscard]] const PollingConfig& polling() const override;
  [[nodiscard]] HandlerRegistry& registry() override;

  void send(ProcId dst, Message msg) override;
  void send_self_after(double delay_s, Message msg) override;
  void cancel_timers() override;
  void compute(double mflop, util::TimeCategory cat) override;
  void compute_seconds(double seconds, util::TimeCategory cat) override;
  void execute(Message&& msg, std::function<void()> on_complete) override;
  [[nodiscard]] bool executing() const override { return active_; }
  [[nodiscard]] std::size_t inbox_size() const override { return inbox_.size(); }

  /// Category charged for the *next* stretch of waiting (Idle by default;
  /// drivers set Synchronization while a processor is blocked in a balancing
  /// barrier). Resets to Idle are the caller's responsibility.
  void set_wait_category(util::TimeCategory cat) override { wait_cat_ = cat; }
  [[nodiscard]] util::TimeCategory wait_category() const { return wait_cat_; }

  [[nodiscard]] bool reliable_transport() const override;
  [[nodiscard]] bool transport_quiet() const override;
  [[nodiscard]] bool peer_degraded(ProcId p) const override;

  /// Local clock: the virtual time through which this processor's timeline
  /// has been charged (>= engine now while busy).
  [[nodiscard]] sim::SimTime clock() const;

 private:
  friend class SimMachine;

  void start(Program* program);
  void on_arrival(Message&& msg);
  void ensure_service(sim::SimTime t);
  void do_service(sim::SimTime t);
  void drain_inbox();
  void do_send(ProcId dst, Message&& msg);
  /// Put one already-stamped message on the wire: model transfer time,
  /// consult the fault plan (drop/dup/delay/reorder/corrupt/pause) and
  /// schedule arrival(s) at the destination's on_wire. With no plan this is
  /// the exact legacy FIFO-channel delivery.
  void wire_send(ProcId dst, Message&& msg);
  /// Wire-level arrival: runs the reliable transport (ack processing, dedup,
  /// resequencing) and releases in-order messages to on_arrival. With no
  /// reliable link it forwards straight to on_arrival.
  void on_wire(Message&& msg);
  void send_bare_ack(ProcId to, std::uint32_t cumulative);
  void schedule_retransmit();
  void on_retransmit_timer();
  void flush_deferred_sends();
  void schedule_interrupt(sim::SimTime arrival);
  void on_interrupt(std::uint64_t gen);
  void finish_activity(std::uint64_t gen);
  [[nodiscard]] bool inbox_has_system() const;

  SimMachine& machine_;
  sim::Engine& eng_;
  sim::ProcState& proc_;
  Program* program_ = nullptr;

  std::deque<Message> inbox_;
  sim::EventId pending_service_ = sim::kNoEvent;
  sim::SimTime pending_service_time_ = 0.0;
  util::TimeCategory wait_cat_ = util::TimeCategory::kIdle;

  // Work-unit activity state (deferred-cost execution).
  bool active_ = false;
  std::uint64_t activity_gen_ = 0;
  double remaining_s_ = 0.0;
  double total_duration_s_ = 0.0;
  sim::SimTime tick_base_ = 0.0;
  int interrupts_ = 0;
  sim::EventId end_event_ = sim::kNoEvent;
  std::function<void()> on_complete_;

  // Cost-capture state while a work-unit body runs.
  bool capturing_ = false;
  double captured_s_ = 0.0;
  std::vector<std::pair<ProcId, Message>> deferred_sends_;

  // Pending send_self_after timer events, cancelled by cancel_timers(). A
  // node holds a handful at a time, so a flat list; cancellation order has
  // no effect on the run.
  std::vector<sim::EventId> timer_events_;

  // Reliable transport (created in start() when a fault plan is active).
  // The retransmit event is deliberately *not* in timer_events_: termination
  // detection cancels application timers, but unacked messages must keep
  // retransmitting until their acks land.
  std::unique_ptr<ReliableLink> rlink_;
  sim::EventId retx_event_ = sim::kNoEvent;
  double retx_at_ = std::numeric_limits<double>::infinity();

  // Per-destination channel clock enforcing FIFO delivery (TCP-like): a small
  // message sent after a large one on the same (src,dst) pair must not
  // overtake it.
  std::vector<sim::SimTime> channel_clock_;
};

class SimMachine final : public Machine {
 public:
  explicit SimMachine(sim::MachineConfig cfg, PollingConfig polling = {});

  [[nodiscard]] int nprocs() const override { return engine_.nprocs(); }
  [[nodiscard]] Node& node(ProcId p) override { return sim_node(p); }
  [[nodiscard]] HandlerRegistry& registry() override { return registry_; }
  double run(const ProgramFactory& factory) override;
  [[nodiscard]] const util::TimeLedger& ledger(ProcId p) const override;

  [[nodiscard]] SimNode& sim_node(ProcId p);
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] const sim::MachineConfig& config() const { return engine_.config(); }
  [[nodiscard]] const PollingConfig& polling() const { return polling_; }
  [[nodiscard]] const sim::RunStats& run_stats() const { return run_stats_; }

  /// Safety valve for the event loop; tests lower it to catch protocol
  /// non-termination instead of hanging.
  void set_max_events(std::uint64_t n) { max_events_ = n; }

 private:
  sim::Engine engine_;
  PollingConfig polling_;
  HandlerRegistry registry_;
  std::vector<std::unique_ptr<SimNode>> nodes_;
  std::vector<std::unique_ptr<Program>> programs_;
  sim::RunStats run_stats_;
  std::uint64_t max_events_ = 500'000'000;
  bool ran_ = false;
};

}  // namespace prema::dmcs
