// Microbenchmarks (google-benchmark, real CPU time): costs of the runtime's
// building blocks — serialization, scheduler operations, MOL bookkeeping,
// and the discrete-event engine itself. These measure the *implementation*,
// complementing the virtual-time experiment binaries.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "dmcs/sim_machine.hpp"
#include "ilb/scheduler.hpp"
#include "mol/mol.hpp"
#include "sim/event_queue.hpp"
#include "support/byte_buffer.hpp"

namespace {

using namespace prema;

void BM_ByteWriterRoundTrip(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> blob(n, 0xAB);
  for (auto _ : state) {
    util::ByteWriter w(n + 16);
    w.put<std::uint64_t>(42);
    w.put_bytes(blob);
    util::ByteReader r(w.bytes());
    benchmark::DoNotOptimize(r.get<std::uint64_t>());
    benchmark::DoNotOptimize(r.get_bytes());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ByteWriterRoundTrip)->Arg(64)->Arg(1024)->Arg(65536);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < 1000; ++i) {
      q.schedule(static_cast<double>((i * 7919) % 1000), [] {});
    }
    while (!q.empty()) q.run_next();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

// Schedule n events, cancel every other one, drain: the cancellation path
// (retransmit timers, re-armed service passes, interrupts) at a size that
// fits in cache and at one that does not.
void BM_EventQueueScheduleCancelRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  std::vector<sim::EventId> ids(static_cast<std::size_t>(n));
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i) {
      const auto t = static_cast<double>((std::int64_t{i} * 7919) % n);
      ids[static_cast<std::size_t>(i)] = q.schedule(t, [] {});
    }
    for (int i = 0; i < n; i += 2) q.cancel(ids[static_cast<std::size_t>(i)]);
    while (!q.empty()) benchmark::DoNotOptimize(q.run_next());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleCancelRun)->Arg(1000)->Arg(100000);

void BM_SchedulerEnqueuePick(benchmark::State& state) {
  const auto objects = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    ilb::Scheduler s;
    for (std::uint32_t i = 0; i < objects; ++i) {
      mol::Delivery d;
      d.target = {0, i};
      d.handler = 1;
      d.weight = 1.0;
      d.delivery_no = 0;
      s.enqueue(std::move(d));
    }
    while (auto d = s.pick()) {
      benchmark::DoNotOptimize(d->target);
      s.complete();
    }
  }
  state.SetItemsProcessed(state.iterations() * objects);
}
BENCHMARK(BM_SchedulerEnqueuePick)->Arg(64)->Arg(1024);

void BM_MolLocalMessageDelivery(benchmark::State& state) {
  // One emulated processor delivering messages to a local object — the
  // fast path of Figure 2's ilb_message.
  class Obj : public mol::MobileObject {
   public:
    [[nodiscard]] std::uint32_t type_id() const override { return 1; }
    void serialize(util::ByteWriter&) const override {}
  };
  for (auto _ : state) {
    state.PauseTiming();
    sim::MachineConfig cfg;
    cfg.nprocs = 1;
    dmcs::SimMachine machine(cfg);
    mol::MolLayer layer(machine);
    std::uint64_t delivered = 0;
    mol::Mol::Hooks hooks;
    hooks.on_delivery = [&delivered](mol::Delivery&&) { ++delivered; };
    hooks.take_queued = [](const mol::MobilePtr&) {
      return std::vector<mol::Delivery>{};
    };
    layer.at(0).set_hooks(std::move(hooks));
    state.ResumeTiming();

    class P : public dmcs::Program {
     public:
      explicit P(mol::Mol& mol) : mol_(mol) {}
      void main(dmcs::Node&) override {
        auto ptr = mol_.add_object(std::make_unique<Obj>());
        for (int i = 0; i < 1000; ++i) mol_.message(ptr, 1, {}, 1.0);
      }

     private:
      mol::Mol& mol_;
    };
    machine.run([&](ProcId) { return std::make_unique<P>(layer.at(0)); });
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MolLocalMessageDelivery);

void BM_ObjectMigrationSerialize(benchmark::State& state) {
  // Serialization cost of a mobile object of the given payload size.
  class Blob : public mol::MobileObject {
   public:
    explicit Blob(std::size_t n) : data(n, 0x5A) {}
    [[nodiscard]] std::uint32_t type_id() const override { return 1; }
    void serialize(util::ByteWriter& w) const override { w.put_vector(data); }
    std::vector<std::uint8_t> data;
  };
  Blob obj(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    util::ByteWriter w;
    obj.serialize(w);
    benchmark::DoNotOptimize(w.bytes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ObjectMigrationSerialize)->Arg(1024)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
