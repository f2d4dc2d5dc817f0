#include <gtest/gtest.h>

#include <memory>

#include "charm/charmlite.hpp"
#include "dmcs/sim_machine.hpp"

namespace prema::charmlite {
namespace {

using util::ByteReader;
using util::ByteWriter;
using util::TimeCategory;

/// Benchmark-style element: a fixed per-phase cost and a phase counter.
class Worker : public Chare {
 public:
  Worker(double mflop, int total_phases)
      : mflop_(mflop), total_phases_(total_phases) {}
  void serialize(ByteWriter& w) const override {
    w.put<double>(mflop_);
    w.put<std::int32_t>(total_phases_);
    w.put<std::int32_t>(phase_);
  }
  static std::unique_ptr<Chare> from(ByteReader& r) {
    const double m = r.get<double>();
    const auto total = r.get<std::int32_t>();
    auto c = std::make_unique<Worker>(m, total);
    c->phase_ = r.get<std::int32_t>();
    return c;
  }

  double mflop_;
  std::int32_t total_phases_;
  std::int32_t phase_ = 0;
};

struct CharmRun {
  double makespan = 0.0;
  int executions = 0;
  int sync_rounds = 0;
  std::uint64_t migrations = 0;
  double max_sync_time = 0.0;
};

/// Heavy chares land on proc 0 (block distribution puts low indices there);
/// each chare runs `phases` phases of its cost with AtSync between phases.
CharmRun run_charm(Strategy strategy, int nprocs, ChareIdx n_chares,
                   int n_heavy, double heavy_mflop, double light_mflop,
                   int phases) {
  sim::MachineConfig mcfg;
  mcfg.nprocs = nprocs;
  mcfg.mflops = 1000.0;  // 1 Mflop == 1 ms
  dmcs::SimMachine machine(mcfg);  // explicit polling: Charm never preempts
  CharmConfig ccfg;
  ccfg.strategy = strategy;
  Runtime rt(machine, ccfg);

  int executions = 0;
  const EntryId work = rt.register_entry(
      "work", [&executions, phases](ChareContext& ctx, Chare& c, ByteReader&) {
        auto& w = static_cast<Worker&>(c);
        ctx.compute(w.mflop_);
        ++executions;
        ++w.phase_;
        if (w.phase_ < phases) ctx.at_sync();
      });
  rt.set_chare_factory([](ChareIdx, ByteReader& r) { return Worker::from(r); });
  rt.create_array(
      n_chares,
      [&](ChareIdx idx) {
        return std::make_unique<Worker>(
            idx < n_heavy ? heavy_mflop : light_mflop, phases);
      },
      /*resume_entry=*/work);
  rt.set_main([&, n_chares](ChareContext& ctx) {
    if (ctx.rank() != 0) return;
    for (ChareIdx i = 0; i < n_chares; ++i) ctx.send(i, work);
  });

  CharmRun res;
  res.makespan = rt.run();
  res.executions = executions;
  res.sync_rounds = rt.sync_rounds();
  res.migrations = rt.migrations();
  for (ProcId p = 0; p < nprocs; ++p) {
    res.max_sync_time =
        std::max(res.max_sync_time,
                 machine.ledger(p).get(TimeCategory::kSynchronization));
  }
  return res;
}

TEST(Charm, SinglePhaseRunsEveryEntryOnce) {
  const auto r = run_charm(Strategy::kNone, 2, 8, 0, 10.0, 10.0, 1);
  EXPECT_EQ(r.executions, 8);
  EXPECT_EQ(r.sync_rounds, 0);
  EXPECT_EQ(r.migrations, 0u);
  // 8 chares, 4 per proc, 10ms each.
  EXPECT_NEAR(r.makespan, 0.04, 0.01);
}

TEST(Charm, AtSyncBarrierRunsBetweenPhases) {
  const auto r = run_charm(Strategy::kNone, 2, 8, 0, 10.0, 10.0, 3);
  EXPECT_EQ(r.executions, 24);
  EXPECT_EQ(r.sync_rounds, 2);
  EXPECT_GE(r.max_sync_time, 0.0);
}

TEST(Charm, GreedyRebalancesMeasuredLoad) {
  // 16 chares, 4 procs; the 4 heavy ones (100ms) start together on proc 0.
  const auto none = run_charm(Strategy::kNone, 4, 16, 4, 100.0, 10.0, 2);
  const auto greedy = run_charm(Strategy::kGreedy, 4, 16, 4, 100.0, 10.0, 2);
  EXPECT_EQ(none.executions, 32);
  EXPECT_EQ(greedy.executions, 32);
  EXPECT_GT(greedy.migrations, 0u);
  // Phase 1 is imbalanced either way; phase 2 runs balanced under Greedy.
  EXPECT_LT(greedy.makespan, 0.85 * none.makespan);
}

TEST(Charm, RotateMovesEverything) {
  const auto r = run_charm(Strategy::kRotate, 2, 6, 0, 5.0, 5.0, 2);
  // Every chare shifts processors at the single balancing step.
  EXPECT_EQ(r.migrations, 6u);
  EXPECT_EQ(r.executions, 12);
}

TEST(Charm, StatePreservedAcrossMigration) {
  sim::MachineConfig mcfg;
  mcfg.nprocs = 2;
  mcfg.mflops = 1000.0;
  dmcs::SimMachine machine(mcfg);
  CharmConfig ccfg;
  ccfg.strategy = Strategy::kRotate;  // force every chare to move
  Runtime rt(machine, ccfg);
  const EntryId work = rt.register_entry(
      "work", [](ChareContext& ctx, Chare& c, ByteReader&) {
        auto& w = static_cast<Worker&>(c);
        ctx.compute(1.0);
        ++w.phase_;
        if (w.phase_ < 3) ctx.at_sync();
      });
  rt.set_chare_factory([](ChareIdx, ByteReader& r) { return Worker::from(r); });
  rt.create_array(4, [](ChareIdx) { return std::make_unique<Worker>(1.0, 3); },
                  work);
  rt.set_main([&](ChareContext& ctx) {
    if (ctx.rank() != 0) return;
    for (ChareIdx i = 0; i < 4; ++i) ctx.send(i, work);
  });
  rt.run();
  // Two sync rounds, each rotating all 4 chares: phase counters intact means
  // serialization round-tripped.
  EXPECT_EQ(rt.migrations(), 8u);
  EXPECT_EQ(rt.sync_rounds(), 2);
}

TEST(Charm, MeasuredLoadsReachTheDatabase) {
  const auto r = run_charm(Strategy::kGreedy, 2, 4, 1, 40.0, 5.0, 2);
  (void)r;
  // run_charm already exercises it; direct check via a dedicated run:
  sim::MachineConfig mcfg;
  mcfg.nprocs = 2;
  mcfg.mflops = 1000.0;
  dmcs::SimMachine machine(mcfg);
  Runtime rt(machine, CharmConfig{});
  const EntryId work = rt.register_entry(
      "work", [](ChareContext& ctx, Chare& c, ByteReader&) {
        auto& w = static_cast<Worker&>(c);
        ctx.compute(w.mflop_);
        ++w.phase_;
        if (w.phase_ < 2) ctx.at_sync();
      });
  rt.set_chare_factory([](ChareIdx, ByteReader& r) { return Worker::from(r); });
  rt.create_array(
      2, [](ChareIdx idx) { return std::make_unique<Worker>(idx == 0 ? 30.0 : 7.0, 2); },
      work);
  rt.set_main([&](ChareContext& ctx) {
    if (ctx.rank() != 0) return;
    ctx.send(0, work);
    ctx.send(1, work);
  });
  rt.run();
  EXPECT_DOUBLE_EQ(rt.measured_load(0), 30.0);
  EXPECT_DOUBLE_EQ(rt.measured_load(1), 7.0);
}

TEST(Charm, SyncTimeIsChargedToSynchronization) {
  // One heavy chare makes everyone else wait at the barrier.
  const auto r = run_charm(Strategy::kGreedy, 4, 8, 1, 200.0, 5.0, 2);
  EXPECT_GT(r.max_sync_time, 0.05);
}

}  // namespace
}  // namespace prema::charmlite
