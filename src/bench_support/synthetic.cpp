#include "bench_support/synthetic.hpp"

#include <memory>
#include <ostream>

#include <algorithm>
#include <cmath>

#include "bench_support/stop_repartition.hpp"
#include "charm/charmlite.hpp"
#include "ilb/policies/work_stealing.hpp"
#include "prema/runtime.hpp"
#include "support/stats.hpp"
#include "trace/export.hpp"

namespace prema::bench {

using util::ByteReader;
using util::ByteWriter;
using util::TimeCategory;

const char* system_name(System s) {
  switch (s) {
    case System::kNoLB: return "No Load Balancing";
    case System::kPremaExplicit: return "PREMA (explicit polling)";
    case System::kPremaImplicit: return "PREMA (implicit / preemptive)";
    case System::kStopRepartition: return "ParMETIS-style stop-and-repartition";
    case System::kCharmNoSync: return "Charm++-style, no sync points";
    case System::kCharmSync: return "Charm++-style, with sync points";
  }
  return "?";
}

const char* system_panel(System s) {
  switch (s) {
    case System::kNoLB: return "(a)";
    case System::kPremaExplicit: return "(b)";
    case System::kPremaImplicit: return "(c)";
    case System::kStopRepartition: return "(d)";
    case System::kCharmNoSync: return "(e)";
    case System::kCharmSync: return "(f)";
  }
  return "?";
}

namespace {

/// The benchmark's work unit as a PREMA/SRP mobile object: its cost and a
/// data blob that makes migration cost realistic.
class WorkUnit : public mol::MobileObject {
 public:
  WorkUnit(double mflop, std::size_t blob_bytes)
      : mflop_(mflop), blob_(blob_bytes, 0x5A) {}
  [[nodiscard]] std::uint32_t type_id() const override { return 1; }
  void serialize(ByteWriter& w) const override {
    w.put<double>(mflop_);
    w.put_bytes(blob_);
  }
  static std::unique_ptr<mol::MobileObject> make(ByteReader& r) {
    const double m = r.get<double>();
    auto obj = std::make_unique<WorkUnit>(m, 0);
    obj->blob_ = r.get_bytes();
    return obj;
  }

  double mflop_;
  std::vector<std::uint8_t> blob_;
};

/// Charm element: cost, phase counter, blob.
class WorkChare : public charmlite::Chare {
 public:
  WorkChare(double mflop, int total_phases, std::size_t blob_bytes)
      : mflop_(mflop), total_phases_(total_phases), blob_(blob_bytes, 0x5A) {}
  void serialize(ByteWriter& w) const override {
    w.put<double>(mflop_);
    w.put<std::int32_t>(total_phases_);
    w.put<std::int32_t>(phase_);
    w.put_bytes(blob_);
  }
  static std::unique_ptr<charmlite::Chare> from(ByteReader& r) {
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

/// Attach a trace recorder to `machine` if the config asks for one. Works for
/// all three runtimes because the hooks live at the Node/Machine layer.
void maybe_enable_trace(dmcs::Machine& machine, const SyntheticConfig& cfg) {
  if (cfg.trace_out.empty()) return;
  trace::TraceConfig tcfg;
  tcfg.enabled = true;
  machine.enable_tracing(tcfg);
}

/// Export the recorded trace (if any) and note the file in the report.
void maybe_export_trace(dmcs::Machine& machine, const SyntheticConfig& cfg,
                        RunReport& rep) {
  const auto* rec = machine.tracer();
  if (rec == nullptr || cfg.trace_out.empty()) return;
  const std::string path = trace_output_path(cfg.trace_out, rep.system);
  if (trace::write_chrome_trace_file(path, *rec)) rep.trace_file = path;
}

double unit_mflop(const SyntheticConfig& cfg, std::int64_t global_index,
                  std::int64_t total) {
  const auto heavy_count = static_cast<std::int64_t>(cfg.heavy_fraction * total);
  return global_index < heavy_count ? cfg.heavy_mflop : cfg.light_mflop;
}

/// Unit coordinates for the topology-aware policies: units laid out on a
/// cubic grid in creation order, so curve locality mirrors index locality.
/// Registration is unconditional — a no-op unless the policy wants topology.
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

RunReport run_prema_family(System sys, const SyntheticConfig& cfg) {
  dmcs::PollingConfig pcfg;
  pcfg.mode = sys == System::kPremaImplicit ? dmcs::PollingMode::kPreemptive
                                            : dmcs::PollingMode::kExplicit;
  pcfg.interval_s = cfg.poll_interval_s;
  const auto owner = make_machine(
      cfg.backend, cfg.nprocs,
      cfg.backend == "thread" ? cfg.thread_mflops : cfg.proc_mflops, cfg.seed, pcfg);
  dmcs::Machine& machine = *owner;
  machine.set_fault_profile(cfg.fault_profile, cfg.fault_seed);

  RuntimeConfig rcfg;
  rcfg.trace.enabled = !cfg.trace_out.empty();
  // Panel (a) is the no-balancing baseline whatever policy the other panels run.
  std::string policy = sys == System::kNoLB ? "null" : cfg.policy;
  if (policy.empty()) policy = "work_stealing";
  rcfg.policy = policy;
  rcfg.balancer.low_watermark = cfg.low_watermark;
  rcfg.balancer.donate_threshold = 2 * cfg.low_watermark;
  if (policy == "work_stealing") {
    ilb::WorkStealingParams params;
    params.max_objects_per_grant = cfg.max_grant_objects;
    rcfg.policy_factory = [params] {
      return std::make_unique<ilb::WorkStealingPolicy>(params);
    };
  }
  Runtime rt(machine, rcfg);
  rt.object_types().add(1, WorkUnit::make);

  // Indexed by executing rank: each worker thread writes only its own slot,
  // so the counters are race-free on both backends.
  std::vector<std::int64_t> executed_by(static_cast<std::size_t>(cfg.nprocs), 0);
  const auto work = rt.register_object_handler(
      "bench.work", [&executed_by](Context& ctx, mol::MobileObject& obj,
                                   ByteReader&, const mol::Delivery&) {
        ctx.compute(static_cast<WorkUnit&>(obj).mflop_);
        ++executed_by[static_cast<std::size_t>(ctx.rank())];
      });

  const std::int64_t total = static_cast<std::int64_t>(cfg.nprocs) * cfg.units_per_proc;
  rt.set_main([&cfg, work, total](Context& ctx) {
    // Block distribution: this rank creates & seeds its slice of the units.
    const std::int64_t first = static_cast<std::int64_t>(ctx.rank()) * cfg.units_per_proc;
    for (std::int64_t i = 0; i < cfg.units_per_proc; ++i) {
      const std::int64_t g = first + i;
      const double mflop = unit_mflop(cfg, g, total);
      auto ptr = ctx.add_object(
          std::make_unique<WorkUnit>(mflop, cfg.unit_payload_bytes));
      ctx.set_coords(ptr, unit_coords(g, total));
      const double hint = cfg.accurate_hints ? mflop / cfg.light_mflop : 1.0;
      ctx.message(ptr, work, {}, hint);
    }
  });

  RunReport rep;
  rep.system = sys;
  rep.label = system_name(sys);
  rep.policy = policy;
  rep.backend = cfg.backend;
  rep.makespan = rt.run();
  for (ProcId p = 0; p < cfg.nprocs; ++p) {
    rep.executed += executed_by[static_cast<std::size_t>(p)];
    rep.ledgers.push_back(machine.ledger(p));
    rep.migrations += rt.mol_at(p).stats().migrations_in;
    rep.resident += rt.mol_at(p).local_count();
    rep.in_transit += rt.mol_at(p).in_transit_count();
  }
  rep.audit_ok = rep.executed == total &&
                 rep.resident == static_cast<std::size_t>(total) &&
                 rep.in_transit == 0 && rt.termination_detected();
  if (machine.fault_plan() != nullptr) {
    // Delivery-ledger checks: under any fault plan the run must still execute
    // every unit exactly once, end with every mobile object resident at
    // exactly one processor and no migration handoff left open, and end by
    // detecting termination.
    PREMA_CHECK_MSG(rep.executed == total,
                    "delivery ledger: units executed != units created");
    PREMA_CHECK_MSG(rep.resident == static_cast<std::size_t>(total),
                    "delivery ledger: mobile objects lost or cloned");
    PREMA_CHECK_MSG(rep.in_transit == 0,
                    "delivery ledger: migration handoffs left open");
    PREMA_CHECK_MSG(rt.termination_detected(),
                    "delivery ledger: termination not detected");
  }
  fill_ledger_figures(rep, machine);
  maybe_export_trace(machine, cfg, rep);
  return rep;
}

RunReport run_srp(const SyntheticConfig& cfg) {
  const auto owner = make_machine("sim", cfg.nprocs, cfg.proc_mflops, cfg.seed);
  dmcs::Machine& machine = *owner;  // explicit polling
  machine.set_fault_profile(cfg.fault_profile, cfg.fault_seed);
  maybe_enable_trace(machine, cfg);

  srp::SrpConfig scfg;
  scfg.low_watermark = cfg.low_watermark;
  scfg.min_outstanding_fraction = cfg.srp_min_outstanding;
  scfg.cooldown_s = cfg.srp_cooldown_s;
  scfg.alpha = cfg.srp_alpha;
  scfg.proc_mflops = cfg.proc_mflops;
  srp::Runtime rt(machine, scfg);
  rt.object_types().add(1, WorkUnit::make);

  std::int64_t executed = 0;
  const auto work = rt.register_object_handler(
      "bench.work", [&executed](srp::Context& ctx, mol::MobileObject& obj,
                                ByteReader&, const mol::Delivery&) {
        ctx.compute(static_cast<WorkUnit&>(obj).mflop_);
        ++executed;
      });

  const std::int64_t total = static_cast<std::int64_t>(cfg.nprocs) * cfg.units_per_proc;
  rt.set_total_units(total);
  rt.set_main([&cfg, work, total](srp::Context& ctx) {
    const std::int64_t first = static_cast<std::int64_t>(ctx.rank()) * cfg.units_per_proc;
    for (std::int64_t i = 0; i < cfg.units_per_proc; ++i) {
      const std::int64_t g = first + i;
      const double mflop = unit_mflop(cfg, g, total);
      auto ptr = ctx.add_object(
          std::make_unique<WorkUnit>(mflop, cfg.unit_payload_bytes));
      const double hint = cfg.accurate_hints ? mflop / cfg.light_mflop : 1.0;
      ctx.message(ptr, work, {}, hint);
    }
  });

  RunReport rep;
  rep.system = System::kStopRepartition;
  rep.label = system_name(rep.system);
  rep.makespan = rt.run();
  rep.executed = executed;
  rep.migrations = rt.migrations();
  for (ProcId p = 0; p < cfg.nprocs; ++p) rep.ledgers.push_back(machine.ledger(p));
  fill_ledger_figures(rep, machine);
  maybe_export_trace(machine, cfg, rep);
  return rep;
}

RunReport run_charm(System sys, const SyntheticConfig& cfg) {
  const int phases = sys == System::kCharmSync ? cfg.charm_sync_points : 1;
  const std::int64_t total = static_cast<std::int64_t>(cfg.nprocs) * cfg.units_per_proc;
  const auto n_chares = static_cast<charmlite::ChareIdx>(total / phases);

  const auto owner = make_machine("sim", cfg.nprocs, cfg.proc_mflops, cfg.seed);
  dmcs::Machine& machine = *owner;  // Charm never preempts entries
  machine.set_fault_profile(cfg.fault_profile, cfg.fault_seed);
  maybe_enable_trace(machine, cfg);

  charmlite::CharmConfig ccfg;
  ccfg.strategy = charmlite::Strategy::kGreedy;
  charmlite::Runtime rt(machine, ccfg);

  std::int64_t executed = 0;
  const auto work = rt.register_entry(
      "bench.work",
      [&executed, phases](charmlite::ChareContext& ctx, charmlite::Chare& c,
                          ByteReader&) {
        auto& w = static_cast<WorkChare&>(c);
        ctx.compute(w.mflop_);
        ++executed;
        ++w.phase_;
        if (w.phase_ < phases) ctx.at_sync();
      });
  rt.set_chare_factory(
      [](charmlite::ChareIdx, ByteReader& r) { return WorkChare::from(r); });
  rt.create_array(
      n_chares,
      [&cfg, n_chares, phases](charmlite::ChareIdx idx) {
        // Heavy elements are the low indices, matching the unit layout.
        const double mflop =
            unit_mflop(cfg, idx, n_chares);
        return std::make_unique<WorkChare>(mflop, phases, cfg.unit_payload_bytes);
      },
      /*resume_entry=*/work);
  rt.set_main([n_chares, work](charmlite::ChareContext& ctx) {
    if (ctx.rank() != 0) return;
    for (charmlite::ChareIdx i = 0; i < n_chares; ++i) ctx.send(i, work);
  });

  RunReport rep;
  rep.system = sys;
  rep.label = system_name(sys);
  rep.makespan = rt.run();
  rep.executed = executed;
  rep.migrations = rt.migrations();
  for (ProcId p = 0; p < cfg.nprocs; ++p) rep.ledgers.push_back(machine.ledger(p));
  fill_ledger_figures(rep, machine);
  maybe_export_trace(machine, cfg, rep);
  return rep;
}

}  // namespace

std::string trace_output_path(const std::string& base, System sys) {
  const char letter = system_panel(sys)[1];  // "(a)" -> 'a'
  const auto dot = base.find_last_of('.');
  std::string out = base;
  if (dot == std::string::npos || base.find('/', dot) != std::string::npos) {
    out += std::string("-") + letter;
  } else {
    out.insert(dot, std::string("-") + letter);
  }
  return out;
}

RunReport run_synthetic(System sys, const SyntheticConfig& cfg) {
  switch (sys) {
    case System::kNoLB:
    case System::kPremaExplicit:
    case System::kPremaImplicit:
      return run_prema_family(sys, cfg);
    case System::kStopRepartition:
      PREMA_CHECK_MSG(cfg.backend != "thread",
                      "stop-and-repartition runs on the sim backend only");
      return run_srp(cfg);
    case System::kCharmNoSync:
    case System::kCharmSync:
      PREMA_CHECK_MSG(cfg.backend != "thread",
                      "the Charm panels run on the sim backend only");
      return run_charm(sys, cfg);
  }
  PREMA_CHECK_MSG(false, "unknown system");
  return {};
}

void print_panel(std::ostream& os, const RunReport& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s %s\n", system_panel(r.system),
                r.label.c_str());
  os << buf;
  std::snprintf(buf, sizeof buf, "    total runtime (makespan): %10.1f s\n",
                r.makespan);
  os << buf;
  const TimeCategory cats[] = {
      TimeCategory::kComputation,   TimeCategory::kCallback,
      TimeCategory::kScheduling,    TimeCategory::kMessaging,
      TimeCategory::kPolling,       TimeCategory::kPartitionCalc,
      TimeCategory::kSynchronization, TimeCategory::kIdle};
  for (const auto cat : cats) {
    util::RunningStats s;
    for (const auto& l : r.ledgers) s.add(l.get(cat));
    if (s.max() <= 0.0) continue;
    std::snprintf(buf, sizeof buf,
                  "    %-22s per-proc mean %9.2f s   min %9.2f   max %9.2f\n",
                  std::string(util::time_category_name(cat)).c_str(), s.mean(),
                  s.min(), s.max());
    os << buf;
  }
  std::snprintf(buf, sizeof buf,
                "    computation stddev across procs: %.2f s\n", r.comp_stddev);
  os << buf;
  std::snprintf(
      buf, sizeof buf,
      "    LB overhead: %.4f%% of computation;  synchronization: %.3f%%;  "
      "migrations: %llu;  units executed: %lld\n",
      r.overhead_pct, r.sync_pct, static_cast<unsigned long long>(r.migrations),
      static_cast<long long>(r.executed));
  os << buf;
  if (!r.trace_file.empty()) {
    os << "    trace written to " << r.trace_file << "\n";
  }
}

void print_comparison(std::ostream& os, const std::vector<RunReport>& rs) {
  os << "    panel  system                                   makespan   "
        "comp-stddev   overhead%   sync%   migrations\n";
  char buf[256];
  for (const auto& r : rs) {
    std::snprintf(buf, sizeof buf,
                  "    %-5s  %-40s %8.1f s %10.2f %10.4f %8.3f %11llu\n",
                  system_panel(r.system), r.label.c_str(), r.makespan,
                  r.comp_stddev, r.overhead_pct, r.sync_pct,
                  static_cast<unsigned long long>(r.migrations));
    os << buf;
  }
}

}  // namespace prema::bench
