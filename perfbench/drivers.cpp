#include "drivers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <utility>

#include "bench_support/stop_repartition.hpp"
#include "charm/charmlite.hpp"
#include "dmcs/sim_machine.hpp"
#include "ilb/policies/work_stealing.hpp"
#include "prema/runtime.hpp"
#include "probes.hpp"
#include "service/latency.hpp"
#include "service/ledger.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using prema::ProcId;
using prema::bench::System;
using prema::util::ByteReader;
using prema::util::ByteWriter;
using prema::util::TimeCategory;
namespace mol = prema::mol;
namespace dmcs = prema::dmcs;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host time of one system run, started at construction. Set-up is
/// everything before the first main callback starts (construction,
/// registration, the runtime's own pre-run work) plus the main callbacks.
class HostClock {
 public:
  template <typename F>
  void main(F&& body) {
    const auto m0 = Clock::now();
    if (!main_started_) {
      before_main_s_ = std::chrono::duration<double>(m0 - t0_).count();
      main_started_ = true;
    }
    body();
    main_s_ += since(m0);
  }
  void finish(SystemResult& r) const {
    r.wall_s = since(t0_);
    r.setup_s = before_main_s_ + main_s_;
  }

 private:
  Clock::time_point t0_ = Clock::now();
  bool main_started_ = false;
  double before_main_s_ = 0.0;
  double main_s_ = 0.0;
};

/// The synthetic work unit, with run_synthetic's wire image so migrations
/// cost the same.
class WorkUnit final : public mol::MobileObject {
 public:
  WorkUnit(double mflop, std::size_t blob_bytes) : mflop_(mflop), blob_(blob_bytes, 0x5A) {}
  [[nodiscard]] std::uint32_t type_id() const override { return 1; }
  void serialize(ByteWriter& w) const override {
    Scope s(Layer::kPack);
    w.put<double>(mflop_);
    w.put_bytes(blob_);
  }
  static std::unique_ptr<mol::MobileObject> make(ByteReader& r) {
    Scope s(Layer::kUnpack);
    auto obj = std::make_unique<WorkUnit>(r.get<double>(), 0);
    obj->blob_ = r.get_bytes();
    return obj;
  }

  double mflop_;
  std::vector<std::uint8_t> blob_;
};

/// The Charm panels' array element (cost, phase counter, blob).
class WorkChare final : public prema::charmlite::Chare {
 public:
  WorkChare(double mflop, int total_phases, std::size_t blob_bytes)
      : mflop_(mflop), total_phases_(total_phases), blob_(blob_bytes, 0x5A) {}
  void serialize(ByteWriter& w) const override {
    Scope s(Layer::kPack);
    w.put<double>(mflop_);
    w.put<std::int32_t>(total_phases_);
    w.put<std::int32_t>(phase_);
    w.put_bytes(blob_);
  }
  static std::unique_ptr<prema::charmlite::Chare> make(ByteReader& r) {
    Scope s(Layer::kUnpack);
    const double m = r.get<double>();
    const auto total = r.get<std::int32_t>();
    auto c = std::make_unique<WorkChare>(m, total, 0);
    c->phase_ = r.get<std::int32_t>();
    c->blob_ = r.get_bytes();
    return c;
  }

  double mflop_;
  std::int32_t total_phases_;
  std::int32_t phase_ = 0;
  std::vector<std::uint8_t> blob_;
};

/// Service mode's request shard (run_service_scenario's wire image).
class RequestShard final : public mol::MobileObject {
 public:
  explicit RequestShard(std::size_t blob_bytes) : blob_(blob_bytes, 0x53) {}
  [[nodiscard]] std::uint32_t type_id() const override { return 1; }
  void serialize(ByteWriter& w) const override {
    Scope s(Layer::kPack);
    w.put_bytes(blob_);
  }
  static std::unique_ptr<mol::MobileObject> make(ByteReader& r) {
    Scope s(Layer::kUnpack);
    auto obj = std::make_unique<RequestShard>(0);
    obj->blob_ = r.get_bytes();
    return obj;
  }

  std::vector<std::uint8_t> blob_;
};

/// Seeded unit costs; without jitter these are run_synthetic's costs.
std::vector<double> unit_costs(const BatchSpec& spec, std::int64_t n) {
  const auto& cfg = spec.cfg;
  prema::util::Rng rng(cfg.seed ^ 0xC057C057C057C057ULL);
  const auto heavy = static_cast<std::int64_t>(cfg.heavy_fraction * static_cast<double>(n));
  std::vector<double> costs(static_cast<std::size_t>(n));
  for (std::int64_t g = 0; g < n; ++g) {
    const double nominal = g < heavy ? cfg.heavy_mflop : cfg.light_mflop;
    costs[static_cast<std::size_t>(g)] =
        spec.cost_jitter > 0.0
            ? nominal * rng.uniform(1.0 - spec.cost_jitter, 1.0 + spec.cost_jitter)
            : nominal;
  }
  return costs;
}

/// run_synthetic's unit coordinates (a cube filled in creation order); only
/// topology-aware policies read them.
mol::Coords unit_coords(std::int64_t g, std::int64_t total) {
  const auto side = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(std::cbrt(static_cast<double>(total)))));
  const double inv = 1.0 / static_cast<double>(side);
  mol::Coords c;
  c.x = (static_cast<double>(g % side) + 0.5) * inv;
  c.y = (static_cast<double>((g / side) % side) + 0.5) * inv;
  c.z = (static_cast<double>(g / (side * side)) + 0.5) * inv;
  return c;
}

/// run_service_scenario's client -> shard hash (SplitMix64 finalizer).
std::uint64_t mix_client(std::uint64_t c) {
  c = (c ^ (c >> 30)) * 0xbf58476d1ce4e5b9ULL;
  c = (c ^ (c >> 27)) * 0x94d049bb133111ebULL;
  return c ^ (c >> 31);
}

prema::trace::TraceConfig trace_config(bool traced) {
  prema::trace::TraceConfig t;
  t.enabled = traced;
  t.buffer_capacity = kTraceRing;
  return t;
}

prema::sim::MachineConfig machine_config(int nprocs, double mflops, std::uint64_t seed) {
  prema::sim::MachineConfig m;
  m.nprocs = nprocs;
  m.mflops = mflops;
  m.seed = seed;
  return m;
}

/// The figure binaries' tuned work stealing (when `max_grant` is set) or a
/// registry policy, wrapped in the forwarding TimedPolicy when traced.
std::function<std::unique_ptr<prema::ilb::Policy>()> policy_factory(
    const std::string& name, std::size_t max_grant, bool traced) {
  return [name, max_grant, traced]() -> std::unique_ptr<prema::ilb::Policy> {
    std::unique_ptr<prema::ilb::Policy> p;
    if (name == "work_stealing" && max_grant != 0) {
      prema::ilb::WorkStealingParams params;
      params.max_objects_per_grant = max_grant;
      p = std::make_unique<prema::ilb::WorkStealingPolicy>(params);
    } else {
      p = prema::ilb::make_policy(name);
    }
    if (traced) return std::make_unique<TimedPolicy>(std::move(p));
    return p;
  };
}

/// Counts hits per id; an id is "missed" unless hit exactly `expect` times.
class Tally {
 public:
  explicit Tally(std::size_t n, std::uint32_t expect = 1) : hits_(n, 0), expect_(expect) {}
  void hit(std::size_t id) {
    if (id < hits_.size()) {
      ++hits_[id];
    } else {
      ++stray_;
    }
  }
  [[nodiscard]] std::uint64_t misses() const {
    return stray_ + static_cast<std::uint64_t>(std::count_if(
                        hits_.begin(), hits_.end(),
                        [this](std::uint32_t h) { return h != expect_; }));
  }

 private:
  std::vector<std::uint32_t> hits_;
  std::uint32_t expect_;
  std::uint64_t stray_ = 0;
};

/// Flat id of the object created `index`-th on rank `home`.
std::size_t flat_id(const mol::MobilePtr& p, std::size_t per_proc) {
  return p.index < per_proc ? static_cast<std::size_t>(p.home) * per_proc + p.index
                            : SIZE_MAX;
}

/// Sojourns recorded per executing rank, merged and sorted after the run.
class Sojourns {
 public:
  explicit Sojourns(int nprocs) : by_rank_(static_cast<std::size_t>(nprocs)) {}
  void record(ProcId rank, double s) { by_rank_[static_cast<std::size_t>(rank)].push_back(s); }
  [[nodiscard]] std::vector<double> sorted() const {
    std::vector<double> all;
    for (const auto& v : by_rank_) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    return all;
  }

 private:
  std::vector<std::vector<double>> by_rank_;
};

/// Every object resident at exactly one processor and no migration handoff
/// left open; "" when both hold.
std::string audit_residency(int nprocs, std::size_t per_proc,
                            const std::function<mol::Mol&(ProcId)>& mol_at) {
  Tally resident(static_cast<std::size_t>(nprocs) * per_proc);
  std::size_t in_transit = 0;
  for (ProcId p = 0; p < nprocs; ++p) {
    mol::Mol& m = mol_at(p);
    in_transit += m.in_transit_count();
    for (const auto& ptr : m.local_ptrs()) resident.hit(flat_id(ptr, per_proc));
  }
  if (resident.misses() != 0) return "object not resident exactly once";
  if (in_transit != 0) return "migration handoff left open";
  return {};
}

void collect_machine(SystemResult& r, dmcs::SimMachine& machine) {
  r.events = machine.run_stats().events;
  for (ProcId p = 0; p < machine.nprocs(); ++p) r.ledgers.push_back(machine.ledger(p));
  if (const auto* rec = machine.tracer()) {
    for (ProcId p = 0; p < machine.nprocs(); ++p) r.counters += rec->sink(p).counters();
    r.trace_dropped = rec->total_dropped();
    r.trace_recorded = rec->total_events() + r.trace_dropped;
  }
}

void collect_mol(SystemResult& r, int nprocs, const std::function<mol::Mol&(ProcId)>& mol_at) {
  for (ProcId p = 0; p < nprocs; ++p) {
    const auto st = mol_at(p).stats();
    r.migrations += st.migrations_in;
    r.forwards += st.forwards;
  }
}

/// PREMA-runtime counters and audits shared by the batch and service runs.
std::string collect_prema(SystemResult& r, prema::Runtime& rt, int nprocs,
                          std::size_t per_proc) {
  const auto mol_at = [&rt](ProcId p) -> mol::Mol& { return rt.mol_at(p); };
  collect_mol(r, nprocs, mol_at);
  for (ProcId p = 0; p < nprocs; ++p) r.balancer_polls += rt.balancer_at(p).stats().polls;
  r.term_waves = rt.termination_waves();
  if (!rt.termination_detected()) return "termination not detected";
  return audit_residency(nprocs, per_proc, mol_at);
}

/// Records the first failed audit; a failed run fails all its operations.
void settle(SystemResult& r, std::string audit) {
  if (r.audit.empty()) r.audit = std::move(audit);
  if (!r.audit.empty()) r.ops_failed = r.ops;
}

SystemResult run_prema(System sys, const BatchSpec& spec, bool traced) {
  const auto& cfg = spec.cfg;
  const auto upp = static_cast<std::size_t>(cfg.units_per_proc);
  const std::int64_t total = static_cast<std::int64_t>(cfg.nprocs) * cfg.units_per_proc;
  const std::vector<double> costs = unit_costs(spec, total);
  SystemResult r;
  r.system = sys;
  r.ops = r.objects = static_cast<std::uint64_t>(total);

  HostClock clock;
  dmcs::PollingConfig pcfg;
  pcfg.mode = sys == System::kPremaImplicit ? dmcs::PollingMode::kPreemptive
                                            : dmcs::PollingMode::kExplicit;
  pcfg.interval_s = cfg.poll_interval_s;
  dmcs::SimMachine machine(machine_config(cfg.nprocs, cfg.proc_mflops, cfg.seed), pcfg);

  prema::RuntimeConfig rcfg;
  rcfg.trace = trace_config(traced);
  rcfg.policy = !cfg.policy.empty() ? cfg.policy
                : sys == System::kNoLB ? "null"
                                        : "work_stealing";
  rcfg.balancer.low_watermark = cfg.low_watermark;
  rcfg.balancer.donate_threshold = 2 * cfg.low_watermark;
  rcfg.policy_factory = policy_factory(rcfg.policy, cfg.max_grant_objects, traced);
  prema::Runtime rt(machine, rcfg);
  rt.object_types().add(1, WorkUnit::make);

  Tally executed(static_cast<std::size_t>(total));
  Sojourns sojourns(cfg.nprocs);
  const auto work = rt.register_object_handler(
      "bench.work", [&](prema::Context& ctx, mol::MobileObject& obj, ByteReader&,
                        const mol::Delivery& d) {
        Scope s(Layer::kHandler);
        const double mflop = static_cast<WorkUnit&>(obj).mflop_;
        ctx.compute(mflop);
        executed.hit(flat_id(d.target, upp));
        // Every unit is submitted at t = 0, and under deferred-cost execution
        // now() is the unit's start: its sojourn is start plus run time.
        Scope rec(Layer::kRecord);
        sojourns.record(ctx.rank(), ctx.now() + mflop / cfg.proc_mflops);
      });
  rt.set_main([&](prema::Context& ctx) {
    clock.main([&] {
      Scope s(Layer::kMain);
      const std::int64_t first = static_cast<std::int64_t>(ctx.rank()) * cfg.units_per_proc;
      for (std::int64_t g = first; g < first + cfg.units_per_proc; ++g) {
        Scope a(Layer::kArrival);
        const double mflop = costs[static_cast<std::size_t>(g)];
        auto ptr = ctx.add_object(std::make_unique<WorkUnit>(mflop, cfg.unit_payload_bytes));
        ctx.set_coords(ptr, unit_coords(g, total));
        Scope m(Layer::kMessage);
        ctx.message(ptr, work, {}, cfg.accurate_hints ? mflop / cfg.light_mflop : 1.0);
      }
    });
  });

  {
    Scope s(Layer::kRun);
    r.makespan = rt.run();
  }
  clock.finish(r);

  collect_machine(r, machine);
  r.sojourns = sojourns.sorted();
  const std::string audit = collect_prema(r, rt, cfg.nprocs, upp);
  r.ops_failed = executed.misses();
  settle(r, r.ops_failed != 0 ? "unit not executed exactly once" : audit);
  return r;
}

SystemResult run_srp(const BatchSpec& spec, bool traced) {
  const auto& cfg = spec.cfg;
  const auto upp = static_cast<std::size_t>(cfg.units_per_proc);
  const std::int64_t total = static_cast<std::int64_t>(cfg.nprocs) * cfg.units_per_proc;
  const std::vector<double> costs = unit_costs(spec, total);
  SystemResult r;
  r.system = System::kStopRepartition;
  r.ops = r.objects = static_cast<std::uint64_t>(total);

  HostClock clock;
  dmcs::SimMachine machine(machine_config(cfg.nprocs, cfg.proc_mflops, cfg.seed));
  machine.enable_tracing(trace_config(traced));
  prema::srp::SrpConfig scfg;
  scfg.low_watermark = cfg.low_watermark;
  scfg.min_outstanding_fraction = cfg.srp_min_outstanding;
  scfg.cooldown_s = cfg.srp_cooldown_s;
  scfg.alpha = cfg.srp_alpha;
  scfg.proc_mflops = cfg.proc_mflops;
  prema::srp::Runtime rt(machine, scfg);
  rt.object_types().add(1, WorkUnit::make);

  Tally executed(static_cast<std::size_t>(total));
  const auto work = rt.register_object_handler(
      "bench.work", [&](prema::srp::Context& ctx, mol::MobileObject& obj, ByteReader&,
                        const mol::Delivery& d) {
        Scope s(Layer::kHandler);
        ctx.compute(static_cast<WorkUnit&>(obj).mflop_);
        executed.hit(flat_id(d.target, upp));
      });
  rt.set_total_units(total);
  rt.set_main([&](prema::srp::Context& ctx) {
    clock.main([&] {
      Scope s(Layer::kMain);
      const std::int64_t first = static_cast<std::int64_t>(ctx.rank()) * cfg.units_per_proc;
      for (std::int64_t g = first; g < first + cfg.units_per_proc; ++g) {
        Scope a(Layer::kArrival);
        const double mflop = costs[static_cast<std::size_t>(g)];
        auto ptr = ctx.add_object(std::make_unique<WorkUnit>(mflop, cfg.unit_payload_bytes));
        ctx.message(ptr, work, {}, cfg.accurate_hints ? mflop / cfg.light_mflop : 1.0);
      }
    });
  });

  r.makespan = rt.run();
  clock.finish(r);

  const auto mol_at = [&rt](ProcId p) -> mol::Mol& { return rt.mol_at(p); };
  collect_machine(r, machine);
  collect_mol(r, cfg.nprocs, mol_at);
  r.migrations = rt.migrations();
  const std::string audit = audit_residency(cfg.nprocs, upp, mol_at);
  r.ops_failed = executed.misses();
  settle(r, r.ops_failed != 0 ? "unit not executed exactly once" : audit);
  return r;
}

SystemResult run_charm(System sys, const BatchSpec& spec, bool traced) {
  const auto& cfg = spec.cfg;
  const int phases = sys == System::kCharmSync ? cfg.charm_sync_points : 1;
  const std::int64_t total = static_cast<std::int64_t>(cfg.nprocs) * cfg.units_per_proc;
  const auto n_chares = static_cast<prema::charmlite::ChareIdx>(total / phases);
  const std::vector<double> costs = unit_costs(spec, n_chares);
  SystemResult r;
  r.system = sys;
  r.ops = static_cast<std::uint64_t>(n_chares) * static_cast<std::uint64_t>(phases);
  r.objects = static_cast<std::uint64_t>(n_chares);

  HostClock clock;
  dmcs::SimMachine machine(machine_config(cfg.nprocs, cfg.proc_mflops, cfg.seed));
  machine.enable_tracing(trace_config(traced));
  prema::charmlite::CharmConfig ccfg;
  ccfg.strategy = prema::charmlite::Strategy::kGreedy;
  prema::charmlite::Runtime rt(machine, ccfg);

  Tally executed(static_cast<std::size_t>(n_chares), static_cast<std::uint32_t>(phases));
  const auto work = rt.register_entry(
      "bench.work", [&](prema::charmlite::ChareContext& ctx, prema::charmlite::Chare& c,
                        ByteReader&) {
        Scope s(Layer::kHandler);
        auto& w = static_cast<WorkChare&>(c);
        ctx.compute(w.mflop_);
        executed.hit(static_cast<std::size_t>(ctx.index()));
        ++w.phase_;
        if (w.phase_ < phases) ctx.at_sync();
      });
  rt.set_chare_factory(
      [](prema::charmlite::ChareIdx, ByteReader& rd) { return WorkChare::make(rd); });
  rt.create_array(
      n_chares,
      [&](prema::charmlite::ChareIdx idx) {
        return std::make_unique<WorkChare>(costs[static_cast<std::size_t>(idx)], phases,
                                           cfg.unit_payload_bytes);
      },
      /*resume_entry=*/work);
  rt.set_main([&](prema::charmlite::ChareContext& ctx) {
    clock.main([&] {
      if (ctx.rank() != 0) return;
      Scope s(Layer::kMain);
      for (prema::charmlite::ChareIdx i = 0; i < n_chares; ++i) {
        Scope a(Layer::kArrival);
        ctx.send(i, work);
      }
    });
  });

  r.makespan = rt.run();
  clock.finish(r);

  collect_machine(r, machine);
  r.migrations = rt.migrations();
  r.ops_failed = executed.misses();
  settle(r, r.ops_failed != 0 ? "chare phase not executed exactly once" : "");
  return r;
}

}  // namespace

double SystemResult::ledger_sum(TimeCategory c) const {
  double s = 0.0;
  for (const auto& l : ledgers) s += l.get(c);
  return s;
}

double SystemResult::comp_stddev() const {
  prema::util::RunningStats comp;
  for (const auto& l : ledgers) comp.add(l.get(TimeCategory::kComputation));
  return comp.stddev();
}

double SystemResult::overhead_pct() const {
  const double comp = ledger_sum(TimeCategory::kComputation);
  const double over = ledger_sum(TimeCategory::kMessaging) +
                      ledger_sum(TimeCategory::kScheduling) +
                      ledger_sum(TimeCategory::kPolling);
  return comp > 0.0 ? 100.0 * over / comp : 0.0;
}

double SystemResult::sync_pct() const {
  const double comp = ledger_sum(TimeCategory::kComputation);
  return comp > 0.0 ? 100.0 * ledger_sum(TimeCategory::kSynchronization) / comp : 0.0;
}

double SystemResult::sojourn_quantile(double q) const {
  if (sojourns.empty()) return 0.0;
  const auto n = static_cast<double>(sojourns.size());
  const auto rank = std::clamp<double>(std::ceil(q * n), 1.0, n);
  return sojourns[static_cast<std::size_t>(rank) - 1];
}

double SystemResult::throughput_rps() const {
  const double span = service ? window_s : makespan;
  return span > 0.0 ? static_cast<double>(sojourns.size()) / span : 0.0;
}

bool SystemResult::same_virtual(const SystemResult& o) const {
  if (makespan != o.makespan || sojourns != o.sojourns || ops != o.ops ||
      ops_failed != o.ops_failed || objects != o.objects || events != o.events ||
      migrations != o.migrations || forwards != o.forwards || term_waves != o.term_waves ||
      balancer_polls != o.balancer_polls ||
      ledgers.size() != o.ledgers.size()) {
    return false;
  }
  for (std::size_t p = 0; p < ledgers.size(); ++p) {
    for (std::size_t c = 0; c < prema::util::kTimeCategoryCount; ++c) {
      const auto cat = static_cast<TimeCategory>(c);
      if (ledgers[p].get(cat) != o.ledgers[p].get(cat)) return false;
    }
  }
  return true;
}

SystemResult run_batch(System sys, const BatchSpec& spec, bool traced) {
  switch (sys) {
    case System::kNoLB:
    case System::kPremaExplicit:
    case System::kPremaImplicit:
      return run_prema(sys, spec, traced);
    case System::kStopRepartition:
      return run_srp(spec, traced);
    case System::kCharmNoSync:
    case System::kCharmSync:
      return run_charm(sys, spec, traced);
  }
  PREMA_CHECK_MSG(false, "unknown system");
  return {};
}

void set_utilization(prema::bench::ServiceScenario& sc, double utilization) {
  const auto& a = sc.arrivals;
  const double mean_cost =
      a.cost_mean_mflop * ((1.0 - a.heavy_fraction) + a.heavy_fraction * a.heavy_mult);
  sc.arrivals.rate_per_proc = utilization * sc.proc_mflops / mean_cost;
}

SystemResult run_service(const prema::bench::ServiceScenario& sc, bool explicit_polling,
                         bool traced) {
  SystemResult r;
  r.service = true;
  r.system = explicit_polling ? System::kPremaExplicit : System::kPremaImplicit;
  r.window_s = sc.duration_s;
  r.objects = static_cast<std::uint64_t>(sc.nprocs) *
              static_cast<std::uint64_t>(sc.shards_per_proc);

  HostClock clock;
  dmcs::PollingConfig pcfg;
  pcfg.mode = explicit_polling ? dmcs::PollingMode::kExplicit : dmcs::PollingMode::kPreemptive;
  dmcs::SimMachine machine(machine_config(sc.nprocs, sc.proc_mflops, sc.seed), pcfg);
  prema::RuntimeConfig rcfg;
  rcfg.policy = sc.policy;
  rcfg.balancer.low_watermark = sc.low_watermark;
  rcfg.balancer.donate_threshold = 2 * sc.low_watermark;
  rcfg.trace = trace_config(traced);
  rcfg.policy_factory = policy_factory(sc.policy, 0, traced);
  prema::Runtime rt(machine, rcfg);
  rt.object_types().add(1, RequestShard::make);

  prema::service::ServiceLedger ledger(sc.nprocs);
  Sojourns sojourns(sc.nprocs);
  const double mflops = sc.proc_mflops;
  const auto request_h = rt.register_object_handler(
      "service.work", [&ledger, &sojourns, mflops](prema::Context& ctx, mol::MobileObject&,
                                                   ByteReader& rd, const mol::Delivery&) {
        Scope s(Layer::kHandler);
        const double t_arr = rd.get<double>();
        const double cost = rd.get<double>();
        const auto client = rd.get<std::uint64_t>();
        // Deferred-cost execution: now() is the request's start.
        const double sojourn = (ctx.now() - t_arr) + cost / mflops;
        ctx.compute(cost);
        {
          Scope rec(Layer::kRecord);
          ledger.at(ctx.rank()).record_completion(sojourn);
          sojourns.record(ctx.rank(), sojourn);
        }
        if (auto* ts = ctx.node().trace()) ts->service_complete(ctx.now(), client, sojourn);
      });

  std::vector<std::vector<mol::MobilePtr>> shards(static_cast<std::size_t>(sc.nprocs));
  rt.set_main([&](prema::Context& ctx) {
    clock.main([&] {
      Scope s(Layer::kMain);
      auto& mine = shards[static_cast<std::size_t>(ctx.rank())];
      for (int i = 0; i < sc.shards_per_proc; ++i) {
        mine.push_back(ctx.add_object(std::make_unique<RequestShard>(sc.shard_payload_bytes)));
        mol::Coords c;
        c.x = (static_cast<double>(ctx.rank()) + 0.5) / ctx.nprocs();
        c.y = (static_cast<double>(i) + 0.5) / sc.shards_per_proc;
        c.z = 0.5;
        ctx.set_coords(mine.back(), c);
      }
    });
  });

  prema::ServiceConfig svc;
  svc.duration_s = sc.duration_s;
  svc.epoch_s = sc.epoch_s;
  svc.arrivals = sc.arrivals;
  svc.ledger = &ledger;
  svc.on_arrival = [&shards, &sc, request_h](prema::Context& ctx,
                                             const prema::service::Arrival& a) {
    Scope s(Layer::kArrival);
    const auto& mine = shards[static_cast<std::size_t>(ctx.rank())];
    const auto slot = static_cast<std::size_t>(
        mix_client(a.client) % static_cast<std::uint64_t>(sc.shards_per_proc));
    ByteWriter w;
    w.put<double>(ctx.now());
    w.put<double>(a.cost_mflop);
    w.put<std::uint64_t>(a.client);
    Scope m(Layer::kMessage);
    ctx.message(mine[slot], request_h, w.take(), a.cost_mflop);
  };

  {
    Scope s(Layer::kRun);
    r.makespan = rt.run_service(std::move(svc));
  }
  clock.finish(r);

  collect_machine(r, machine);
  r.sojourns = sojourns.sorted();
  const auto totals = ledger.totals();
  r.ops = totals.arrivals;
  r.ops_failed = totals.arrivals > totals.completions ? totals.arrivals - totals.completions
                                                      : totals.completions - totals.arrivals;
  const std::string audit =
      collect_prema(r, rt, sc.nprocs, static_cast<std::size_t>(sc.shards_per_proc));
  settle(r, r.ops_failed != 0 ? "arrivals != completions" : audit);
  return r;
}

std::vector<std::string> parity_check() {
  std::vector<std::string> bad;
  char buf[320];
  const System prema_panels[] = {System::kPremaExplicit, System::kPremaImplicit};
  const System all_panels[] = {System::kNoLB,          System::kPremaExplicit,
                               System::kPremaImplicit, System::kStopRepartition,
                               System::kCharmNoSync,   System::kCharmSync};
  for (const char* policy : {"", "sfc"}) {
    BatchSpec spec;
    spec.cost_jitter = 0.0;
    spec.cfg.nprocs = 8;
    spec.cfg.units_per_proc = 24;
    spec.cfg.heavy_mflop = 300.0;
    spec.cfg.policy = policy;
    // run_synthetic lets a policy override replace panel (a)'s null policy,
    // so only the balancing panels are compared under sfc.
    const bool sfc = spec.cfg.policy == "sfc";
    for (const System sys : sfc ? std::span<const System>(prema_panels)
                                : std::span<const System>(all_panels)) {
      const auto ref = prema::bench::run_synthetic(sys, spec.cfg);
      const auto got = run_batch(sys, spec, /*traced=*/false);
      const auto executed = static_cast<std::int64_t>(got.ops - got.ops_failed);
      if (ref.makespan != got.makespan || ref.migrations != got.migrations ||
          ref.executed != executed) {
        std::snprintf(buf, sizeof buf,
                      "panel %s%s: makespan %.17g vs %.17g, migrations %llu vs %llu, "
                      "executed %lld vs %lld",
                      prema::bench::system_panel(sys), sfc ? " (sfc)" : "", ref.makespan,
                      got.makespan, static_cast<unsigned long long>(ref.migrations),
                      static_cast<unsigned long long>(got.migrations),
                      static_cast<long long>(ref.executed), static_cast<long long>(executed));
        bad.emplace_back(buf);
      }
    }
  }

  prema::bench::ServiceScenario sc;
  sc.nprocs = 8;
  sc.duration_s = 0.5;
  set_utilization(sc, 0.7);
  const auto ref = prema::bench::run_service_scenario(sc);
  const auto got = run_service(sc, /*explicit_polling=*/false, /*traced=*/false);
  prema::service::LatencyHistogram hist;
  for (const double s : got.sojourns) hist.record(s);
  const double p50 = hist.percentile(0.50) * 1e3;
  const double p999 = hist.percentile(0.999) * 1e3;
  if (ref.arrivals != got.ops || ref.p50_ms != p50 || ref.p999_ms != p999 ||
      ref.makespan != got.makespan || ref.migrations != got.migrations) {
    std::snprintf(buf, sizeof buf,
                  "service: arrivals %llu vs %llu, p50 %.17g vs %.17g ms, p999 %.17g vs "
                  "%.17g ms, makespan %.17g vs %.17g",
                  static_cast<unsigned long long>(ref.arrivals),
                  static_cast<unsigned long long>(got.ops), ref.p50_ms, p50, ref.p999_ms,
                  p999, ref.makespan, got.makespan);
    bad.emplace_back(buf);
  }
  return bad;
}

}  // namespace perfbench
