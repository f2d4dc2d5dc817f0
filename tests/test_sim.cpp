#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/network_model.hpp"

namespace prema::sim {
namespace {

using util::TimeCategory;

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule(1.0, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelSuppressesEvent) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule(1.0, [&] { ++fired; });
  q.schedule(2.0, [&] { ++fired; });
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelOfFiredEventIsHarmless) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.run_next();
  q.cancel(a);  // already fired
  q.cancel(kNoEvent);
  EXPECT_TRUE(q.empty());
  // A fresh event still works and counts correctly.
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  std::vector<double> times;
  q.schedule(1.0, [&] {
    times.push_back(1.0);
    q.schedule(1.5, [&] { times.push_back(1.5); });
  });
  while (!q.empty()) times.push_back(q.next_time()), q.run_next();
  // next_time observed before each run: 1.0, then 1.5
  EXPECT_EQ(times.size(), 4u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.cancel(a);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, CancelOfFiredIdSparesTheEventThatReusedItsSlot) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule(1.0, [&] { ++fired; });
  q.run_next();
  // The next schedule may take over the storage `a` used; `a` is stale.
  const EventId b = q.schedule(2.0, [&] { fired += 10; });
  EXPECT_NE(a, b);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_EQ(fired, 11);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelledIdStaysStaleAfterReuse) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule(1.0, [&] { ++fired; });
  q.cancel(a);
  const EventId b = q.schedule(1.0, [&] { fired += 10; });
  q.cancel(a);  // must not hit b
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_EQ(fired, 10);
  q.cancel(b);  // fired: no-op
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelCountsOnce) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.schedule(3.0, [] {});
  q.cancel(a);
  q.cancel(a);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

// Seeded differential test against a (time, insertion seq) ordered map:
// mixed schedule / cancel / run_next with many equal times, and cancels of
// fired, cancelled and never-issued ids. Firing order, size() and
// next_time() must match the model after every operation.
TEST(EventQueue, MatchesOrderedMapModel) {
  using Key = std::pair<SimTime, std::uint64_t>;
  EventQueue q;
  std::map<Key, EventId> model;   // pending events in firing order
  std::map<EventId, Key> live;    // id -> model key, pending events only
  std::vector<EventId> issued;    // every id ever returned by schedule
  std::set<EventId> seen;         // the same, for the uniqueness check
  std::vector<std::uint64_t> fired;
  std::vector<std::uint64_t> expected;
  std::uint64_t seq = 0;
  SimTime now = 0.0;
  util::SplitMix64 rng(0xD1FFULL);

  for (int op = 0; op < 10000; ++op) {
    const std::uint64_t r = rng.next() % 100;
    if (r < 45) {
      // Eight distinct offsets from "now": equal times are the common case.
      const SimTime t = now + 0.25 * static_cast<double>(rng.next() % 8);
      const std::uint64_t tag = seq++;
      const EventId id = q.schedule(t, [&fired, tag] { fired.push_back(tag); });
      ASSERT_NE(id, kNoEvent);
      ASSERT_TRUE(seen.insert(id).second) << "id handed out twice";
      model.emplace(Key{t, tag}, id);
      live.emplace(id, Key{t, tag});
      issued.push_back(id);
    } else if (r < 75) {
      EventId id = kNoEvent;
      const std::uint64_t pick = rng.next() % 10;
      if (pick == 0) {
        id = kNoEvent;
      } else if (pick == 1) {
        id = (std::uint64_t{1} << 62) + rng.next() % 64;  // never issued
      } else if (!issued.empty()) {
        id = issued[rng.next() % issued.size()];  // live, fired or cancelled
      }
      q.cancel(id);
      if (auto it = live.find(id); it != live.end()) {
        model.erase(it->second);
        live.erase(it);
      }
    } else if (!model.empty()) {
      ASSERT_DOUBLE_EQ(q.next_time(), model.begin()->first.first);
      const auto head = model.begin();
      expected.push_back(head->first.second);
      now = head->first.first;
      live.erase(head->second);
      model.erase(head);
      EXPECT_DOUBLE_EQ(q.run_next(), now);
    }
    ASSERT_EQ(q.size(), model.size()) << "after op " << op;
    ASSERT_EQ(q.empty(), model.empty());
    ASSERT_EQ(fired, expected) << "after op " << op;
    if (!model.empty()) {
      ASSERT_DOUBLE_EQ(q.next_time(), model.begin()->first.first);
    }
  }
  while (!model.empty()) {
    expected.push_back(model.begin()->first.second);
    model.erase(model.begin());
    q.run_next();
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(fired, expected);
  EXPECT_GT(expected.size(), 3000u);
}

TEST(NetworkModel, CostsScaleWithSize) {
  EXPECT_GT(net::transfer_time(100000), net::transfer_time(100));
  EXPECT_GT(net::send_cpu(100000), net::send_cpu(0));
  EXPECT_GT(net::recv_cpu(100000), net::recv_cpu(0));
  // Latency floor: even an empty message takes at least the wire latency.
  EXPECT_GE(net::transfer_time(0), net::kLatencyS);
}

TEST(Engine, ComputeSecondsConversion) {
  MachineConfig cfg;
  cfg.mflops = 333.0;
  EXPECT_NEAR(cfg.compute_seconds(500.0), 1.5015, 1e-3);
}

TEST(Engine, ProcAdvanceChargesLedger) {
  MachineConfig cfg;
  cfg.nprocs = 2;
  Engine eng(cfg);
  eng.proc(0).advance(TimeCategory::kComputation, 2.5);
  EXPECT_DOUBLE_EQ(eng.proc(0).clock(), 2.5);
  EXPECT_DOUBLE_EQ(eng.proc(0).ledger().get(TimeCategory::kComputation), 2.5);
  EXPECT_DOUBLE_EQ(eng.proc(1).clock(), 0.0);
}

TEST(Engine, CatchUpChargesGapOnce) {
  MachineConfig cfg;
  cfg.nprocs = 1;
  Engine eng(cfg);
  eng.proc(0).catch_up(3.0);
  eng.proc(0).catch_up(2.0);  // already past; no-op
  EXPECT_DOUBLE_EQ(eng.proc(0).clock(), 3.0);
  EXPECT_DOUBLE_EQ(eng.proc(0).ledger().get(TimeCategory::kIdle), 3.0);
}

TEST(Engine, CatchUpHonoursWaitCategory) {
  MachineConfig cfg;
  cfg.nprocs = 1;
  Engine eng(cfg);
  eng.proc(0).catch_up(1.0, TimeCategory::kSynchronization);
  EXPECT_DOUBLE_EQ(eng.proc(0).ledger().get(TimeCategory::kSynchronization), 1.0);
  EXPECT_DOUBLE_EQ(eng.proc(0).ledger().get(TimeCategory::kIdle), 0.0);
}

TEST(Engine, RunDrainsQueueAndReportsStats) {
  MachineConfig c1; c1.nprocs = 1; Engine eng(c1);
  int fired = 0;
  eng.at(1.0, [&] { ++fired; });
  eng.after(2.0, [&] { ++fired; });
  const RunStats stats = eng.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(stats.events, 2u);
  EXPECT_DOUBLE_EQ(stats.end_time, 2.0);
  EXPECT_FALSE(stats.hit_event_limit);
}

TEST(Engine, EventLimitStopsRunawayLoop) {
  MachineConfig c1; c1.nprocs = 1; Engine eng(c1);
  std::function<void()> loop = [&] { eng.after(1.0, loop); };
  eng.at(0.0, loop);
  const RunStats stats = eng.run(/*max_events=*/100);
  EXPECT_TRUE(stats.hit_event_limit);
  EXPECT_EQ(stats.events, 100u);
}

TEST(Engine, TimeLimitStopsRun) {
  MachineConfig c1; c1.nprocs = 1; Engine eng(c1);
  std::function<void()> loop = [&] { eng.after(1.0, loop); };
  eng.at(0.0, loop);
  const RunStats stats = eng.run(UINT64_MAX, /*max_time=*/10.0);
  EXPECT_TRUE(stats.hit_time_limit);
  EXPECT_LE(stats.end_time, 10.0);
}

TEST(Engine, PerProcRngStreamsAreIndependent) {
  MachineConfig cfg;
  cfg.nprocs = 2;
  cfg.seed = 42;
  Engine a(cfg), b(cfg);
  EXPECT_EQ(a.proc(0).rng().next(), b.proc(0).rng().next());
  Engine c(cfg);
  EXPECT_NE(c.proc(0).rng().next(), c.proc(1).rng().next());
}

TEST(EngineDeathTest, PastEventAborts) {
  MachineConfig c1; c1.nprocs = 1; Engine eng(c1);
  eng.at(5.0, [] {});
  eng.run();
  EXPECT_DEATH(eng.at(1.0, [] {}), "past");
}

}  // namespace
}  // namespace prema::sim
