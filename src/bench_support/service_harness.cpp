#include "bench_support/service_harness.hpp"

#include <memory>

#include "bench_support/harness.hpp"
#include "fault/fault_plan.hpp"
#include "prema/runtime.hpp"
#include "support/assert.hpp"
#include "trace/export.hpp"

namespace prema::bench {

using util::ByteReader;
using util::ByteWriter;
using util::TimeCategory;

namespace {

/// A request shard: the mobile unit of service-mode load balancing. Carries
/// no per-request state — just a blob that makes migration cost realistic —
/// so the balancer's decision is purely about where its traffic should land.
class RequestShard : public mol::MobileObject {
 public:
  explicit RequestShard(std::size_t blob_bytes) : blob_(blob_bytes, 0x53) {}
  [[nodiscard]] std::uint32_t type_id() const override { return 1; }
  void serialize(ByteWriter& w) const override { w.put_bytes(blob_); }
  static std::unique_ptr<mol::MobileObject> make(ByteReader& r) {
    auto obj = std::make_unique<RequestShard>(0);
    obj->blob_ = r.get_bytes();
    return obj;
  }

  std::vector<std::uint8_t> blob_;
};

/// Client -> shard slot: SplitMix64-style finalizer so adjacent client ids
/// spread across shards (plain modulo would map the hot prefix to shard 0).
std::uint64_t mix_client(std::uint64_t c) {
  c = (c ^ (c >> 30)) * 0xbf58476d1ce4e5b9ULL;
  c = (c ^ (c >> 27)) * 0x94d049bb133111ebULL;
  return c ^ (c >> 31);
}

ServiceReport run_on(dmcs::Machine& machine, const ServiceScenario& sc,
                     bool sim_backend, double mflops) {
  RuntimeConfig rcfg;
  rcfg.policy = sc.policy;
  rcfg.balancer.low_watermark = sc.low_watermark;
  rcfg.balancer.donate_threshold = 2 * sc.low_watermark;
  rcfg.trace.enabled = !sc.trace_out.empty();
  rcfg.trace.buffer_capacity = sc.trace_capacity;
  Runtime rt(machine, rcfg);
  rt.object_types().add(1, RequestShard::make);

  service::ServiceLedger ledger(sc.nprocs);

  // Per-rank accumulators, indexed by the executing rank: each worker thread
  // writes only its own slot, so no lock is needed on either backend.
  std::vector<double> comp_by_rank(static_cast<std::size_t>(sc.nprocs), 0.0);

  const fault::FaultPlan* plan = machine.fault_plan();
  const auto request_h = rt.register_object_handler(
      "service.work",
      [&ledger, &comp_by_rank, plan, sim_backend, mflops](
          Context& ctx, mol::MobileObject&, ByteReader& r, const mol::Delivery&) {
        // wire:service.request unpack r
        const double t_arr = r.get<double>();
        const double cost = r.get<double>();
        const auto client = r.get<std::uint64_t>();
        // Accounted compute time of this request on the executing node: the
        // fault plan's slowdown factor is part of the machine's reality.
        const double factor =
            plan != nullptr ? plan->compute_factor(ctx.rank()) : 1.0;
        const double service_s = cost / mflops * factor;
        double sojourn = 0.0;
        if (sim_backend) {
          // Deferred-cost execution: now() is the activity's start; the body
          // runs before the emulated clock advances across the unit.
          sojourn = (ctx.now() - t_arr) + service_s;
          ctx.compute(cost);
        } else {
          ctx.compute(cost);  // spins for real
          sojourn = ctx.now() - t_arr;
        }
        ledger.at(ctx.rank()).record_completion(sojourn);
        comp_by_rank[static_cast<std::size_t>(ctx.rank())] += service_s;
        if (auto* ts = ctx.node().trace()) {
          ts->record(trace::EventKind::kServiceComplete, ctx.now(), kNoProc, client,
                     sojourn);
        }
      });

  // Shards, block-distributed: slot [rank][i]. Each rank fills its own inner
  // vector in main(); the outer vector is pre-sized so no reallocation races.
  std::vector<std::vector<mol::MobilePtr>> shards(
      static_cast<std::size_t>(sc.nprocs));
  rt.set_main([&shards, &sc](Context& ctx) {
    auto& mine = shards[static_cast<std::size_t>(ctx.rank())];
    mine.reserve(static_cast<std::size_t>(sc.shards_per_proc));
    for (int i = 0; i < sc.shards_per_proc; ++i) {
      mine.push_back(ctx.add_object(
          std::make_unique<RequestShard>(sc.shard_payload_bytes)));
      // Shard coordinates: ranks along x, slots along y. A no-op unless a
      // scheduled policy wants topology, so registration is unconditional.
      mol::Coords c;
      c.x = (static_cast<double>(ctx.rank()) + 0.5) / ctx.nprocs();
      c.y = (static_cast<double>(i) + 0.5) / sc.shards_per_proc;
      c.z = 0.5;
      ctx.set_coords(mine.back(), c);
    }
  });

  ServiceConfig svc;
  svc.duration_s = sc.duration_s;
  svc.epoch_s = sc.epoch_s;
  svc.arrivals = sc.arrivals;
  svc.ledger = &ledger;
  for (const auto& [t, name] : sc.policy_switches) {
    svc.policy_switches.push_back({t, name});
  }
  svc.on_arrival = [&shards, &sc, request_h](Context& ctx,
                                             const service::Arrival& a) {
    const auto& mine = shards[static_cast<std::size_t>(ctx.rank())];
    const auto slot = static_cast<std::size_t>(
        mix_client(a.client) % static_cast<std::uint64_t>(sc.shards_per_proc));
    ByteWriter w;
    // wire:service.request pack w
    w.put<double>(ctx.now());
    w.put<double>(a.cost_mflop);
    w.put<std::uint64_t>(a.client);
    ctx.message(mine[slot], request_h, w.take(), a.cost_mflop);
  };

  ServiceReport rep;
  rep.backend = sc.backend;
  rep.policy = sc.policy;
  for (const auto& [t, name] : sc.policy_switches) {
    (void)t;
    rep.policy += "->" + name;  // e.g. "work_stealing->sfc"
  }
  rep.model = std::string(service::arrival_model_name(sc.arrivals.model));
  rep.fault_profile = sc.fault_profile;
  rep.offered_rate = sc.arrivals.rate_per_proc;
  rep.duration_s = sc.duration_s;
  rep.makespan = rt.run_service(std::move(svc));

  const service::ServiceTotals totals = ledger.totals();
  rep.arrivals = totals.arrivals;
  rep.completions = totals.completions;

  std::size_t resident = 0;
  std::size_t in_transit = 0;
  for (ProcId p = 0; p < sc.nprocs; ++p) {
    rep.migrations += rt.mol_at(p).stats().migrations_in;
    resident += rt.mol_at(p).local_count();
    in_transit += rt.mol_at(p).in_transit_count();
    rep.request_comp_s += comp_by_rank[static_cast<std::size_t>(p)];
    rep.ledger_comp_s += machine.ledger(p).get(TimeCategory::kComputation);
  }
  const auto total_shards =
      static_cast<std::size_t>(sc.nprocs) * static_cast<std::size_t>(sc.shards_per_proc);
  rep.audit_ok = totals.completions == totals.arrivals &&
                 resident == total_shards && in_transit == 0;
  rep.term_waves = rt.termination_waves();
  if (rep.request_comp_s > 0.0) {
    rep.ledger_delta_pct =
        100.0 * (rep.ledger_comp_s - rep.request_comp_s) / rep.request_comp_s;
  }

  rep.histogram = ledger.merged_histogram();
  rep.mean_ms = rep.histogram.mean() * 1e3;
  rep.p50_ms = rep.histogram.percentile(0.50) * 1e3;
  rep.p99_ms = rep.histogram.percentile(0.99) * 1e3;
  rep.p999_ms = rep.histogram.percentile(0.999) * 1e3;
  rep.max_ms = rep.histogram.max() * 1e3;
  rep.throughput_rps =
      static_cast<double>(rep.completions) / sc.duration_s;

  if (const auto* rec = machine.tracer(); rec != nullptr && !sc.trace_out.empty()) {
    if (trace::write_chrome_trace_file(sc.trace_out, *rec)) {
      rep.trace_file = sc.trace_out;
    }
  }
  return rep;
}

}  // namespace

ServiceReport run_service_scenario(const ServiceScenario& sc) {
  const bool sim_backend = sc.backend == "sim";
  const double mflops = sim_backend ? sc.proc_mflops : sc.thread_mflops;
  dmcs::PollingConfig pcfg;
  pcfg.mode = dmcs::PollingMode::kPreemptive;
  const auto machine = make_machine(sc.backend, sc.nprocs, mflops, sc.seed, pcfg);
  machine->set_fault_profile(sc.fault_profile, sc.fault_seed);
  return run_on(*machine, sc, sim_backend, mflops);
}

}  // namespace prema::bench
