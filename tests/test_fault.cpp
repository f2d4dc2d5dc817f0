#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_support/synthetic.hpp"
#include "dmcs/reliable.hpp"
#include "dmcs/sim_machine.hpp"
#include "fault/fault_plan.hpp"
#include "support/byte_buffer.hpp"
#include "trace/trace.hpp"

/// \file test_fault.cpp
/// The fault-injection subsystem (src/fault) and the reliable-delivery
/// protocol (src/dmcs/reliable.hpp) it exists to exercise: plan determinism
/// (same profile + seed = same fault schedule), override precedence, the
/// sliding-window sender/receiver state machine in isolation, and end-to-end
/// sim-backend runs under every canned profile checking the contract the
/// stack depends on — per-sender FIFO and exactly-once delivery — plus the
/// null-plan guarantee that a fault-free run never touches the reliability
/// machinery (all its counters stay zero).

namespace prema::fault {
namespace {

using dmcs::Message;
using dmcs::MsgKind;

// ---------------------------------------------------------------------------
// FaultProfile / FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultProfile, CannedProfilesRegistered) {
  for (const char* name :
       {"none", "lossy1pct", "burst-reorder", "one-slow-node", "mid-pause"}) {
    EXPECT_TRUE(is_fault_profile(name)) << name;
    EXPECT_EQ(make_fault_profile(name).name, name);
  }
  EXPECT_FALSE(is_fault_profile("lossy99pct"));
  EXPECT_FALSE(make_fault_profile("none").any());
  EXPECT_TRUE(make_fault_profile("lossy1pct").any());
}

TEST(FaultProfile, LinkOverridePrecedence) {
  FaultProfile prof;
  prof.link.drop_p = 0.01;  // default for every link
  LinkFaults exact;  exact.drop_p = 0.5;
  LinkFaults by_src; by_src.drop_p = 0.25;
  LinkFaults by_dst; by_dst.drop_p = 0.125;
  prof.link_overrides[{1, 2}] = exact;
  prof.link_overrides[{1, kNoProc}] = by_src;
  prof.link_overrides[{kNoProc, 2}] = by_dst;
  FaultPlan plan(prof, 1, 4);
  EXPECT_DOUBLE_EQ(plan.link(1, 2).drop_p, 0.5);    // exact match wins
  EXPECT_DOUBLE_EQ(plan.link(1, 3).drop_p, 0.25);   // then (src, *)
  EXPECT_DOUBLE_EQ(plan.link(0, 2).drop_p, 0.125);  // then (*, dst)
  EXPECT_DOUBLE_EQ(plan.link(0, 3).drop_p, 0.01);   // else the default
}

TEST(FaultPlan, SameSeedDrawsIdenticalFates) {
  const FaultProfile prof = make_fault_profile("burst-reorder");
  FaultPlan a(prof, 42, 4);
  FaultPlan b(prof, 42, 4);
  for (int i = 0; i < 500; ++i) {
    const ProcId src = static_cast<ProcId>(i % 4);
    const ProcId dst = static_cast<ProcId>((i + 1) % 4);
    const WireFate fa = a.on_send(src, dst);
    const WireFate fb = b.on_send(src, dst);
    EXPECT_EQ(fa.copies, fb.copies);
    EXPECT_EQ(fa.corrupt, fb.corrupt);
    EXPECT_EQ(fa.reorder, fb.reorder);
    EXPECT_DOUBLE_EQ(fa.extra_delay_s, fb.extra_delay_s);
    EXPECT_DOUBLE_EQ(fa.reorder_jitter_s[0], fb.reorder_jitter_s[0]);
    EXPECT_DOUBLE_EQ(fa.reorder_jitter_s[1], fb.reorder_jitter_s[1]);
  }
}

TEST(FaultPlan, LinkStreamsAreIndependent) {
  // Drawing heavily on one link must not perturb another link's schedule:
  // link (0,1)'s fate sequence is the same whether or not (2,3) drew first.
  const FaultProfile prof = make_fault_profile("lossy1pct");
  FaultPlan quiet(prof, 7, 4);
  FaultPlan noisy(prof, 7, 4);
  for (int i = 0; i < 1000; ++i) (void)noisy.on_send(2, 3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(quiet.on_send(0, 1).copies, noisy.on_send(0, 1).copies) << i;
  }
}

TEST(FaultPlan, InactivePlanNeverInjects) {
  FaultPlan plan(make_fault_profile("none"), 7, 4);
  EXPECT_FALSE(plan.active());
  for (int i = 0; i < 100; ++i) {
    const WireFate f = plan.on_send(0, 1);
    EXPECT_EQ(f.copies, 1);
    EXPECT_FALSE(f.corrupt);
    EXPECT_FALSE(f.reorder);
    EXPECT_DOUBLE_EQ(f.extra_delay_s, 0.0);
  }
  EXPECT_FALSE(plan.node_degraded(0));
  EXPECT_DOUBLE_EQ(plan.compute_factor(0), 1.0);
  EXPECT_DOUBLE_EQ(plan.release_time(0, 3.25), 3.25);
}

TEST(FaultPlan, SlowNodeOracle) {
  FaultPlan plan(make_fault_profile("one-slow-node"), 7, 4);
  EXPECT_TRUE(plan.active());
  EXPECT_TRUE(plan.node_degraded(1));
  EXPECT_FALSE(plan.node_degraded(0));
  EXPECT_GT(plan.compute_factor(1), 1.0);
  EXPECT_DOUBLE_EQ(plan.compute_factor(0), 1.0);
  // Inside a pause window arrivals are released at the window's end;
  // outside one they pass through untouched.
  const NodeFaults& nf = plan.node(1);
  ASSERT_GT(nf.pause_len_s, 0.0);
  const double inside = nf.pause_start_s + nf.pause_len_s / 2.0;
  EXPECT_DOUBLE_EQ(plan.release_time(1, inside), nf.pause_start_s + nf.pause_len_s);
  const double before = nf.pause_start_s / 2.0;
  EXPECT_DOUBLE_EQ(plan.release_time(1, before), before);
  EXPECT_DOUBLE_EQ(plan.release_time(0, inside), inside);  // healthy node
}

// ---------------------------------------------------------------------------
// ReliableLink: the sliding-window state machine in isolation
// ---------------------------------------------------------------------------

Message data_msg(ProcId src, std::uint8_t byte) {
  return Message{1, src, MsgKind::kApp, {byte}};
}

TEST(ReliableLink, StampAssignsSequentialSeqsPerLink) {
  dmcs::ReliableLink link(0, 3);
  for (std::uint32_t i = 0; i < 3; ++i) {
    Message m = data_msg(0, 0);
    link.stamp(1, m, 0.0);
    EXPECT_EQ(m.seq, i);
    EXPECT_TRUE(m.rflags & Message::kReliable);
    EXPECT_EQ(m.checksum, dmcs::message_checksum(m));
  }
  Message m = data_msg(0, 0);
  link.stamp(2, m, 0.0);
  EXPECT_EQ(m.seq, 0u);  // each directed link numbers independently
  EXPECT_EQ(link.pending_to(1), 3u);
  EXPECT_EQ(link.pending_to(2), 1u);
  EXPECT_FALSE(link.quiet());
}

TEST(ReliableLink, OutOfOrderArrivalsAreBufferedThenReleasedInOrder) {
  dmcs::ReliableLink sender(0, 2);
  dmcs::ReliableLink receiver(1, 2);
  std::vector<Message> wire;
  for (std::uint8_t i = 0; i < 3; ++i) {
    Message m = data_msg(0, i);
    sender.stamp(1, m, 0.0);
    wire.push_back(std::move(m));
  }
  // Deliver 2, 1, 0: the first two arrive early and must be held back.
  auto a2 = receiver.accept(Message(wire[2]));
  EXPECT_TRUE(a2.deliver.empty());
  EXPECT_EQ(a2.ack_value, 0u);
  auto a1 = receiver.accept(Message(wire[1]));
  EXPECT_TRUE(a1.deliver.empty());
  EXPECT_FALSE(receiver.quiet());  // resequencing buffer non-empty
  auto a0 = receiver.accept(Message(wire[0]));
  ASSERT_EQ(a0.deliver.size(), 3u);  // 0 unblocks the whole run
  for (std::uint8_t i = 0; i < 3; ++i) EXPECT_EQ(a0.deliver[i].payload[0], i);
  EXPECT_EQ(a0.ack_value, 3u);
  EXPECT_TRUE(receiver.quiet());
  EXPECT_EQ(receiver.cumulative(0), 3u);
}

TEST(ReliableLink, DuplicatesAreAbsorbedAndReacked) {
  dmcs::ReliableLink sender(0, 2);
  dmcs::ReliableLink receiver(1, 2);
  Message m = data_msg(0, 9);
  sender.stamp(1, m, 0.0);
  auto first = receiver.accept(Message(m));
  ASSERT_EQ(first.deliver.size(), 1u);
  auto second = receiver.accept(Message(m));
  EXPECT_TRUE(second.duplicate);
  EXPECT_TRUE(second.deliver.empty());
  EXPECT_EQ(second.ack_value, 1u);  // the re-ack covers the lost original ack
}

TEST(ReliableLink, CorruptCopyIsDiscardedWithoutAck) {
  dmcs::ReliableLink sender(0, 2);
  dmcs::ReliableLink receiver(1, 2);
  Message m = data_msg(0, 9);
  sender.stamp(1, m, 0.0);
  Message damaged = m;
  damaged.payload.clear();  // wire truncation; checksum no longer matches
  auto res = receiver.accept(std::move(damaged));
  EXPECT_TRUE(res.corrupt);
  EXPECT_TRUE(res.deliver.empty());
  EXPECT_EQ(receiver.cumulative(0), 0u);  // frontier unmoved: not accepted
  auto intact = receiver.accept(Message(m));  // the retransmit's copy
  ASSERT_EQ(intact.deliver.size(), 1u);
  EXPECT_EQ(intact.ack_value, 1u);
}

TEST(ReliableLink, CumulativeAckClearsPendingAndBackoffDoubles) {
  constexpr double kRto = dmcs::kRtoInitialS;
  dmcs::ReliableLink link(0, 2);
  Message m0 = data_msg(0, 0);
  Message m1 = data_msg(0, 1);
  link.stamp(1, m0, 0.0);
  link.stamp(1, m1, 0.0);
  EXPECT_DOUBLE_EQ(link.next_deadline(), kRto);
  EXPECT_FALSE(link.peer_lossy(1));

  // Head-of-window only: both are overdue, but only seq 0 is resent —
  // acks are cumulative, so recovering the head is enough to release
  // everything the receiver buffered behind the gap.
  auto due = link.due_retransmits(1.5 * kRto);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].msg.seq, 0u);
  EXPECT_TRUE(due[0].msg.rflags & Message::kRetransmit);
  EXPECT_TRUE(link.peer_lossy(1));  // retransmitting = struggling
  EXPECT_DOUBLE_EQ(link.next_deadline(), 1.5 * kRto + 2.0 * kRto);  // head's rto doubled
  EXPECT_TRUE(link.due_retransmits(1.6 * kRto).empty());            // backed off

  link.on_ack(1, 1);  // peer accepted seq 0; seq 1 becomes the head
  EXPECT_EQ(link.pending_to(1), 1u);
  auto due2 = link.due_retransmits(1.7 * kRto);  // new head overdue since kRto
  ASSERT_EQ(due2.size(), 1u);
  EXPECT_EQ(due2[0].msg.seq, 1u);

  link.on_ack(1, 2);  // peer accepted all seq < 2
  EXPECT_EQ(link.pending_to(1), 0u);
  EXPECT_TRUE(link.quiet());
  EXPECT_FALSE(link.peer_lossy(1));
}

TEST(ReliableLink, WireTimeDefersRetransmitDeadline) {
  constexpr double kRto = dmcs::kRtoInitialS;
  dmcs::ReliableLink link(0, 2);
  Message m = data_msg(0, 0);
  link.stamp(1, m, 0.0);
  EXPECT_DOUBLE_EQ(link.next_deadline(), kRto);
  // The copy sat in the link's FIFO and only hit the wire at 5 rto: the
  // timeout must measure the round-trip from there, not from the stamp.
  link.note_wire_time(1, 0, 5 * kRto);
  EXPECT_DOUBLE_EQ(link.next_deadline(), 5 * kRto + kRto);
  EXPECT_TRUE(link.due_retransmits(1.5 * kRto).empty());
  EXPECT_EQ(link.due_retransmits(6.5 * kRto).size(), 1u);
  link.on_ack(1, 1);
  link.note_wire_time(1, 0, 100 * kRto);  // acked: silently ignored
  EXPECT_TRUE(link.quiet());
}

TEST(ReliableLinkDeathTest, RetryBudgetExhaustionAborts) {
  dmcs::ReliableLink link(0, 2);
  Message m = data_msg(0, 0);
  link.stamp(1, m, 0.0);
  // Each poll lands past the backed-off deadline, which never exceeds
  // kRtoMaxS: exactly kMaxRetries timeouts retransmit, the next one aborts.
  const double step = 2 * dmcs::kRtoMaxS;
  double t = 0.0;
  for (int i = 0; i < dmcs::kMaxRetries; ++i) {
    ASSERT_EQ(link.due_retransmits(t += step).size(), 1u) << "timeout " << i + 1;
  }
  EXPECT_DEATH((void)link.due_retransmits(t + step), "retry budget exhausted");
}

// ---------------------------------------------------------------------------
// End-to-end on the emulated machine
// ---------------------------------------------------------------------------

/// Minimal program: application messages run FIFO through Node::execute.
class QueueProgram : public dmcs::Program {
 public:
  std::function<void(dmcs::Node&)> on_main;
  void main(dmcs::Node& n) override {
    if (on_main) on_main(n);
  }
  void deliver_app(dmcs::Node&, Message&& m) override {
    queue_.push_back(std::move(m));
  }
  bool service(dmcs::Node& n) override {
    if (queue_.empty()) return false;
    Message m = std::move(queue_.front());
    queue_.pop_front();
    n.execute(std::move(m), nullptr);
    return true;
  }

 private:
  std::deque<Message> queue_;
};

/// Rank 0 streams `count` numbered messages to every other rank; each
/// receiver must observe exactly 0, 1, 2, ... in order (FIFO + exactly-once),
/// whatever the wire does underneath.
void run_stream_under_profile(const std::string& profile, int nprocs,
                              int count) {
  sim::MachineConfig cfg;
  cfg.nprocs = nprocs;
  dmcs::SimMachine m(cfg);
  m.set_fault_plan(
      std::make_shared<FaultPlan>(make_fault_profile(profile), 7, nprocs));

  std::vector<std::vector<std::uint32_t>> seen(
      static_cast<std::size_t>(nprocs));
  const dmcs::HandlerId h = m.registry().add("recv", [&](dmcs::Node& n,
                                                         Message&& msg) {
    util::ByteReader r(msg.payload);
    seen[static_cast<std::size_t>(n.rank())].push_back(r.get<std::uint32_t>());
  });
  m.run([&](ProcId p) {
    auto prog = std::make_unique<QueueProgram>();
    if (p == 0) {
      prog->on_main = [&, h](dmcs::Node& n) {
        for (int i = 0; i < count; ++i) {
          for (ProcId dst = 1; dst < static_cast<ProcId>(nprocs); ++dst) {
            util::ByteWriter w;
            w.put<std::uint32_t>(static_cast<std::uint32_t>(i));
            n.send(dst, Message{h, 0, MsgKind::kApp, w.take()});
          }
        }
      };
    }
    return prog;
  });
  for (ProcId p = 1; p < static_cast<ProcId>(nprocs); ++p) {
    const auto& got = seen[static_cast<std::size_t>(p)];
    ASSERT_EQ(got.size(), static_cast<std::size_t>(count)) << "rank " << p;
    for (int i = 0; i < count; ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(i)], static_cast<std::uint32_t>(i))
          << "rank " << p;
    }
  }
}

TEST(FaultSim, ExactlyOnceFifoUnderLossy1pct) {
  run_stream_under_profile("lossy1pct", 4, 100);
}

TEST(FaultSim, ExactlyOnceFifoUnderBurstReorder) {
  run_stream_under_profile("burst-reorder", 4, 100);
}

TEST(FaultSim, ExactlyOnceFifoUnderOneSlowNode) {
  run_stream_under_profile("one-slow-node", 4, 100);
}

TEST(FaultSim, FaultFreeRunKeepsReliabilityCountersZero) {
  sim::MachineConfig cfg;
  cfg.nprocs = 4;
  dmcs::SimMachine m(cfg);  // no fault plan: legacy transport
  trace::TraceConfig tcfg;
  tcfg.enabled = true;
  m.enable_tracing(tcfg);
  const dmcs::HandlerId h = m.registry().add("noop", [](dmcs::Node&, Message&&) {});
  m.run([&](ProcId p) {
    auto prog = std::make_unique<QueueProgram>();
    if (p == 0) {
      prog->on_main = [h](dmcs::Node& n) {
        for (ProcId dst = 1; dst < 4; ++dst) {
          n.send(dst, Message{h, 0, MsgKind::kApp, {}});
        }
      };
    }
    return prog;
  });
  const auto* rec = m.tracer();
  ASSERT_NE(rec, nullptr);
  for (ProcId p = 0; p < 4; ++p) {
    const auto& c = rec->sink(p).counters();
    EXPECT_EQ(c.faults_injected, 0u) << p;
    EXPECT_EQ(c.retransmits, 0u) << p;
    EXPECT_EQ(c.acks_sent, 0u) << p;
    EXPECT_EQ(c.dup_drops, 0u) << p;
    EXPECT_EQ(c.corrupt_drops, 0u) << p;
  }
}

TEST(FaultSim, LossyRunRecordsFaultAndRecoveryCounters) {
  sim::MachineConfig cfg;
  cfg.nprocs = 2;
  dmcs::SimMachine m(cfg);
  // An aggressive custom profile so every counter fires within a short run.
  FaultProfile prof;
  prof.name = "test-hostile";
  prof.link.drop_p = 0.2;
  prof.link.dup_p = 0.2;
  prof.link.corrupt_p = 0.1;
  m.set_fault_plan(std::make_shared<FaultPlan>(prof, 11, cfg.nprocs));
  trace::TraceConfig tcfg;
  tcfg.enabled = true;
  m.enable_tracing(tcfg);
  int delivered = 0;
  const dmcs::HandlerId h =
      m.registry().add("count", [&](dmcs::Node&, Message&&) { ++delivered; });
  m.run([&](ProcId p) {
    auto prog = std::make_unique<QueueProgram>();
    if (p == 0) {
      prog->on_main = [h](dmcs::Node& n) {
        for (int i = 0; i < 200; ++i) {
          n.send(1, Message{h, 0, MsgKind::kApp, {1, 2, 3, 4}});
        }
      };
    }
    return prog;
  });
  EXPECT_EQ(delivered, 200);  // exactly once despite 20% drop / 20% dup / 10% corrupt
  trace::ProcCounters total;
  const auto* rec = m.tracer();
  ASSERT_NE(rec, nullptr);
  for (ProcId p = 0; p < 2; ++p) total += rec->sink(p).counters();
  EXPECT_GT(total.faults_injected, 0u);
  EXPECT_GT(total.retransmits, 0u);  // drops forced timeouts
  EXPECT_GT(total.acks_sent, 0u);
  EXPECT_GT(total.dup_drops, 0u);  // dup faults plus retransmit echoes
}

// ---------------------------------------------------------------------------
// Whole-stack soak: the fig3 workload (shrunk) under every canned profile.
// run_synthetic's delivery-ledger checks abort on any lost or cloned mobile
// object, unexecuted unit, or open migration handoff.
// ---------------------------------------------------------------------------

bench::SyntheticConfig soak_config(const std::string& profile) {
  bench::SyntheticConfig cfg;
  cfg.nprocs = 8;
  cfg.units_per_proc = 16;
  cfg.heavy_fraction = 0.5;
  cfg.fault_profile = profile;
  cfg.fault_seed = 7;
  return cfg;
}

TEST(FaultSoak, Fig3WorkloadCompletesUnderEveryProfile) {
  for (const char* profile : {"lossy1pct", "burst-reorder", "one-slow-node"}) {
    SCOPED_TRACE(profile);
    const auto report =
        bench::run_synthetic(bench::System::kPremaImplicit, soak_config(profile));
    EXPECT_EQ(report.executed, 8 * 16);
    EXPECT_GT(report.makespan, 0.0);
  }
}

TEST(FaultSoak, ExplicitPollingSurvivesLossyLinks) {
  const auto report = bench::run_synthetic(bench::System::kPremaExplicit,
                                           soak_config("lossy1pct"));
  EXPECT_EQ(report.executed, 8 * 16);
}

/// Past 128 procs termination traffic goes through block leaders: reports,
/// coalesced forwards, fanned-out probes and summed block acks, all riding
/// the reliable transport under each profile.
void soak_termination_tree(int nprocs) {
  for (const char* profile : {"lossy1pct", "burst-reorder"}) {
    for (const auto sys : {bench::System::kPremaExplicit, bench::System::kPremaImplicit}) {
      SCOPED_TRACE(std::string(profile) + " panel " + bench::system_panel(sys));
      auto cfg = soak_config(profile);
      cfg.nprocs = nprocs;
      const auto report = bench::run_synthetic(sys, cfg);
      EXPECT_EQ(report.executed, nprocs * 16);
      EXPECT_TRUE(report.audit_ok);  // includes termination_detected()
    }
  }
}

TEST(FaultSoak, TerminationTreeWithOneRankBlock) { soak_termination_tree(129); }

TEST(FaultSoak, TerminationTreeWithTwoFullBlocks) { soak_termination_tree(256); }

}  // namespace
}  // namespace prema::fault
