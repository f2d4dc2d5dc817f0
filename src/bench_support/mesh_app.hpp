#pragma once

#include <cstdint>
#include <string>

#include "bench_support/harness.hpp"
#include "mesh/subdomain.hpp"

/// \file mesh_app.hpp
/// The paper's "real-world" application (§5): parallel adaptive mesh
/// generation. The unit cube is cut into grid x grid x grid box subdomains,
/// block-distributed over the processors as mobile objects. Each phase, a
/// coordinator object broadcasts the current crack-tip position; every
/// subdomain re-meshes itself with the tip-induced sizing (real advancing-
/// front work) and reports back; when all have, the tip moves and the next
/// phase starts. Subdomains near the tip are an order of magnitude more
/// expensive — and the tip's walk is unpredictable, so hint-based balancing
/// has nothing to go on.
///
/// Three drivers: PREMA (work stealing, implicit or explicit polling),
/// stop-and-repartition, and no balancing. The paper reports PREMA ~15%
/// ahead of stop-and-repartition and ~42% ahead of no balancing, with < 1%
/// runtime overhead; the paper did not run this application on Charm++ —
/// neither do we.

namespace prema::bench {

struct MeshAppConfig {
  int nprocs = 16;
  /// Subdomain grid resolution per axis (grid^3 subdomains).
  int grid = 10;
  int phases = 5;
  /// Stop-and-repartition cooldown. The default approximates the classic
  /// usage the paper describes (§1): repartition once per refinement phase
  /// (phases here run ~10 s). Smaller cooldowns turn the baseline into a
  /// quasi-continuous rebalancer — see the cooldown sweep printed by
  /// bench/mesh_generator.
  double srp_cooldown_s = 10.0;
  std::uint64_t seed = 77;
};

enum class MeshSystem : std::uint8_t {
  kNoLB = 0,
  kPremaImplicit,
  kPremaExplicit,
  kStopRepartition,
};

const char* mesh_system_name(MeshSystem s);

struct MeshAppReport : LedgerFigures {
  MeshSystem system{};
  std::string label;
  double makespan = 0.0;
  std::int64_t total_tets = 0;   ///< real elements generated, all phases
  std::int64_t refinements = 0;  ///< subdomain-phase executions
  std::uint64_t migrations = 0;
};

/// Run the mesh application under one system on the emulated machine.
MeshAppReport run_mesh_app(MeshSystem sys, const MeshAppConfig& cfg);

}  // namespace prema::bench
