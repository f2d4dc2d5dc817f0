#include "bench_support/mesh_app.hpp"

#include <memory>

#include "bench_support/stop_repartition.hpp"
#include "prema/runtime.hpp"

namespace prema::bench {

using mesh::CrackTipSizing;
using mesh::MeshSubdomain;
using mesh::Vec3;
using util::ByteReader;
using util::ByteWriter;

const char* mesh_system_name(MeshSystem s) {
  switch (s) {
    case MeshSystem::kNoLB: return "No Load Balancing";
    case MeshSystem::kPremaImplicit: return "PREMA (implicit / preemptive)";
    case MeshSystem::kPremaExplicit: return "PREMA (explicit polling)";
    case MeshSystem::kStopRepartition: return "Stop-and-repartition";
  }
  return "?";
}

namespace {

/// Boundary divisions per subdomain (>= 2 for general position).
constexpr int kBoundaryDivisions = 2;
/// Crack sizing: fine size at the tip, background size, influence radius
/// (all in domain units; subdomain edge is 1/grid).
constexpr double kHMin = 0.018;
constexpr double kHMax = 0.18;
constexpr double kCrackRadius = 0.18;
constexpr double kProcMflops = 333.0;
constexpr double kPollIntervalS = 10e-3;
/// Stop-and-repartition outstanding-work threshold.
constexpr double kSrpMinOutstanding = 0.02;

/// Phase coordinator: a (deliberately immobile: its work carries no weight)
/// mobile object on rank 0 counting per-phase completions. It also keeps the
/// last element count per subdomain: the next phase's messages carry those
/// as weight hints — the best prediction an adaptive application has, and
/// stale by exactly one crack step (paper §5: hint-based prediction fails
/// under adaptivity).
class Coordinator : public mol::MobileObject {
 public:
  static constexpr std::uint32_t kTypeId = 8;
  [[nodiscard]] std::uint32_t type_id() const override { return kTypeId; }
  void serialize(util::ByteWriter& w) const override {
    w.put<std::int32_t>(remaining);
    w.put<std::int32_t>(phase);
    w.put_vector(weights);
  }
  static std::unique_ptr<mol::MobileObject> make(ByteReader& r) {
    auto c = std::make_unique<Coordinator>();
    c->remaining = r.get<std::int32_t>();
    c->phase = r.get<std::int32_t>();
    c->weights = r.get_vector<double>();
    return c;
  }
  std::int32_t remaining = 0;
  std::int32_t phase = 0;
  std::vector<double> weights;  ///< last phase's cost (seconds) per subdomain
};

/// Shared geometry of the decomposition (block distribution over ranks).
struct Layout {
  int nprocs;
  int n_subs;
  int per_rank;

  explicit Layout(const MeshAppConfig& cfg)
      : nprocs(cfg.nprocs),
        n_subs(cfg.grid * cfg.grid * cfg.grid),
        per_rank((n_subs + cfg.nprocs - 1) / cfg.nprocs) {}

  [[nodiscard]] ProcId rank_of(int g) const {
    return std::min<ProcId>(g / per_rank, nprocs - 1);
  }
  /// Mobile pointer of subdomain g, assuming each rank creates its block in
  /// ascending order (rank 0 creates the coordinator first, at index 0).
  [[nodiscard]] mol::MobilePtr ptr_of(int g) const {
    const ProcId r = rank_of(g);
    std::uint32_t index = static_cast<std::uint32_t>(g - r * per_rank);
    if (r == 0) ++index;  // the coordinator holds index 0
    return {r, index};
  }
  [[nodiscard]] static mol::MobilePtr coordinator_ptr() { return {0, 0}; }
};

/// Statistics every driver collects identically.
struct Counters {
  std::int64_t total_tets = 0;
  std::int64_t refinements = 0;
};

CrackTipSizing sizing_for(const MeshAppConfig& cfg, int phase) {
  return CrackTipSizing(mesh::crack_tip_position(phase, cfg.seed), kHMin, kHMax,
                        kCrackRadius);
}

/// Subdomain box for global index g.
void box_of(const MeshAppConfig& cfg, int g, Vec3& lo, Vec3& hi) {
  const int gx = g % cfg.grid;
  const int gy = (g / cfg.grid) % cfg.grid;
  const int gz = g / (cfg.grid * cfg.grid);
  const double s = 1.0 / cfg.grid;
  lo = {gx * s, gy * s, gz * s};
  hi = {(gx + 1) * s, (gy + 1) * s, (gz + 1) * s};
}

std::vector<std::uint8_t> refine_payload(int phase, int g) {
  ByteWriter w;
  w.put<std::int32_t>(phase);
  w.put<std::int32_t>(g);
  return w.take();
}

/// The driver body is identical for PREMA and SRP up to the runtime types;
/// express it once against the common surface both expose.
template <typename Runtime, typename Context>
MeshAppReport drive(Runtime& rt, dmcs::Machine& machine, MeshSystem sys,
                    const MeshAppConfig& cfg, Counters& counters) {
  const Layout layout(cfg);
  rt.object_types().add(MeshSubdomain::kTypeId, MeshSubdomain::deserialize);
  rt.object_types().add(Coordinator::kTypeId, Coordinator::make);

  // Forward declaration knot: refine sends to done, done sends to refine.
  auto refine_id = std::make_shared<mol::ObjectHandlerId>(0);

  const auto done_h = rt.register_object_handler(
      "mesh.done",
      [&cfg, &layout, refine_id](Context& ctx, mol::MobileObject& obj,
                                 ByteReader& r, const mol::Delivery&) {
        auto& coord = static_cast<Coordinator&>(obj);
        const auto g_done = r.get<std::int32_t>();
        const auto seconds = r.get<double>();
        coord.weights[static_cast<std::size_t>(g_done)] = seconds;
        if (--coord.remaining > 0) return;
        ++coord.phase;
        if (coord.phase >= cfg.phases) return;  // all done
        coord.remaining = layout.n_subs;
        for (int g = 0; g < layout.n_subs; ++g) {
          // The hint is last phase's measured cost — already stale, since
          // the crack tip has moved on.
          const double hint =
              std::max(0.05, coord.weights[static_cast<std::size_t>(g)]);
          ctx.message(layout.ptr_of(g), *refine_id,
                      refine_payload(coord.phase, g), hint);
        }
      });

  *refine_id = rt.register_object_handler(
      "mesh.refine",
      [&cfg, &counters, done_h](Context& ctx, mol::MobileObject& obj,
                                ByteReader& r, const mol::Delivery&) {
        auto& sub = static_cast<MeshSubdomain&>(obj);
        const auto phase = r.get<std::int32_t>();
        const auto g = r.get<std::int32_t>();
        const auto sizing = sizing_for(cfg, phase);
        const auto stats = sub.refine(sizing);  // the real mesher runs here
        const double mflop = mesh::refine_cost_mflop(stats.tets_created);
        ctx.compute(mflop);
        counters.total_tets += stats.tets_created;
        ++counters.refinements;
        // Report measured cost; zero weight so no balancer ever moves the
        // coordinator around.
        ByteWriter w;
        w.put<std::int32_t>(g);
        w.put<double>(mflop / kProcMflops);
        ctx.message(Layout::coordinator_ptr(), done_h, w.take(), 0.0);
      });

  rt.set_main([&cfg, &layout, refine_id](Context& ctx) {
    if (ctx.rank() == 0) {
      auto coord = std::make_unique<Coordinator>();
      coord->remaining = layout.n_subs;
      coord->phase = 0;
      coord->weights.assign(static_cast<std::size_t>(layout.n_subs), 1.0);
      ctx.add_object(std::move(coord));
    }
    for (int g = 0; g < layout.n_subs; ++g) {
      if (layout.rank_of(g) != ctx.rank()) continue;
      Vec3 lo, hi;
      box_of(cfg, g, lo, hi);
      ctx.add_object(std::make_unique<MeshSubdomain>(
          lo, hi, kBoundaryDivisions,
          cfg.seed * 1315423911ULL + static_cast<std::uint64_t>(g)));
    }
    if (ctx.rank() == 0) {
      for (int g = 0; g < layout.n_subs; ++g) {
        ctx.message(layout.ptr_of(g), *refine_id, refine_payload(0, g), 1.0);
      }
    }
  });

  MeshAppReport rep;
  rep.system = sys;
  rep.label = mesh_system_name(sys);
  rep.makespan = rt.run();
  rep.total_tets = counters.total_tets;
  rep.refinements = counters.refinements;
  fill_ledger_figures(rep, machine);
  return rep;
}

}  // namespace

MeshAppReport run_mesh_app(MeshSystem sys, const MeshAppConfig& cfg) {
  Counters counters;

  if (sys == MeshSystem::kStopRepartition) {
    const auto machine = make_machine("sim", cfg.nprocs, kProcMflops, cfg.seed);
    srp::SrpConfig scfg;
    scfg.cooldown_s = cfg.srp_cooldown_s;
    scfg.min_outstanding_fraction = kSrpMinOutstanding;
    scfg.proc_mflops = kProcMflops;
    srp::Runtime rt(*machine, scfg);
    rt.set_total_units(static_cast<std::int64_t>(cfg.grid) * cfg.grid * cfg.grid *
                       cfg.phases);
    auto rep = drive<srp::Runtime, srp::Context>(rt, *machine, sys, cfg, counters);
    rep.migrations = rt.migrations();
    return rep;
  }

  dmcs::PollingConfig pcfg;
  pcfg.mode = sys == MeshSystem::kPremaImplicit ? dmcs::PollingMode::kPreemptive
                                                : dmcs::PollingMode::kExplicit;
  pcfg.interval_s = kPollIntervalS;
  const auto machine = make_machine("sim", cfg.nprocs, kProcMflops, cfg.seed, pcfg);
  RuntimeConfig rcfg;
  rcfg.policy = sys == MeshSystem::kNoLB ? "null" : "work_stealing";
  Runtime rt(*machine, rcfg);
  auto rep = drive<Runtime, prema::Context>(rt, *machine, sys, cfg, counters);
  for (ProcId p = 0; p < cfg.nprocs; ++p) {
    rep.migrations += rt.mol_at(p).stats().migrations_in;
  }
  return rep;
}

}  // namespace prema::bench
