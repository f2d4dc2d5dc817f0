#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "bench_support/harness.hpp"
#include "support/time_ledger.hpp"

/// \file synthetic.hpp
/// The paper's synthetic benchmark (§5) and the six system configurations of
/// Figures 3-6:
///   (a) no load balancing            (d) ParMETIS stop-and-repartition
///   (b) PREMA, explicit polling      (e) Charm++, no synchronization points
///   (c) PREMA, implicit polling      (f) Charm++, 4 synchronization points
///
/// Work units are created block-distributed (unit u on processor
/// u / units_per_proc); the first heavy_fraction * N units are "heavy".
/// Hint-based balancers are fed deliberately inaccurate hints (every unit
/// weighs 1.0) to mimic an adaptive application that cannot predict its own
/// future (§5). There is no communication between units.

namespace prema::bench {

enum class System {
  kNoLB = 0,
  kPremaExplicit,
  kPremaImplicit,
  kStopRepartition,
  kCharmNoSync,
  kCharmSync,
};

const char* system_name(System s);
const char* system_panel(System s);  ///< (a)..(f) per the paper's figures

struct SyntheticConfig {
  int nprocs = 128;
  int units_per_proc = 864;
  /// Balancing-policy registry name for the balancing PREMA panels. Empty
  /// keeps "work_stealing" with the grant-size tuning below; any
  /// ilb::make_policy name — including the topology-aware "sfc" —
  /// overrides it. kNoLB always runs "null". Units always
  /// register grid coordinates (a no-op unless the policy wants topology).
  std::string policy;
  /// Machine backend for the PREMA systems: "sim" (emulated, deterministic)
  /// or "thread" (real OS threads). SRP/Charm panels are sim-only.
  std::string backend = "sim";
  /// Real-thread compute conversion rate (backend == "thread").
  double thread_mflops = 2000.0;
  /// Fraction of all work units that are heavy (0.5 or 0.1 in the paper).
  double heavy_fraction = 0.5;
  double heavy_mflop = 500.0;
  double light_mflop = 250.0;
  /// Emulated processor speed (333 MHz UltraSPARC IIi).
  double proc_mflops = 333.0;
  /// Hints the balancers see: false = all units claim weight 1.0 (the
  /// paper's deliberately inaccurate setting), true = true Mflop.
  bool accurate_hints = false;
  /// Data carried by each work unit (object migration size).
  std::size_t unit_payload_bytes = 1024;
  /// PREMA implicit-mode polling-thread period.
  double poll_interval_s = 10e-3;
  /// Low water-mark (in hint units ~= queued work units). The default begs
  /// only once the queue has run dry — the paper's hard case (§4.1: with
  /// inaccurate hints a safe cushion cannot be chosen). Implicit polling is
  /// insensitive to this (§4.2: balancing starts while the last unit runs);
  /// explicit polling pays a full request round-trip of idleness per steal.
  double low_watermark = 1.0;
  /// Objects migrated per steal grant. The benchmark's units are coarse
  /// grained (paper §4: "a single mobile object may be migrated"), so grants
  /// are small — which is precisely what makes explicit polling suffer.
  std::size_t max_grant_objects = 2;
  /// Charm++ configuration: number of balancing points for kCharmSync.
  int charm_sync_points = 4;
  /// Stop-and-repartition tuning (§3.1 / §5).
  double srp_min_outstanding = 0.06;
  double srp_cooldown_s = 15.0;
  double srp_alpha = 1.0;
  std::uint64_t seed = 2003;
  /// When non-empty, record an event trace of each run and export Chrome
  /// trace-event JSON to a per-panel file derived from this base path (see
  /// trace_output_path). Empty = tracing off, zero overhead.
  std::string trace_out;
  /// Canned fault-injection profile ("none" | "lossy1pct" | "burst-reorder" |
  /// "one-slow-node", see src/fault/fault_plan.hpp and EXPERIMENTS.md).
  /// Anything but "none" turns on the reliable transport and, after the run,
  /// the delivery-ledger checks (exactly-once execution, no lost or cloned
  /// mobile objects, no open migration handoffs).
  std::string fault_profile = "none";
  /// Seed for the fault plan's per-link RNG streams (independent of `seed`).
  std::uint64_t fault_seed = 7;
};

/// One panel's run: its ledgers, the paper's ledger figures over them
/// (LedgerFigures), and the conservation audit.
struct RunReport : LedgerFigures {
  System system{};
  std::string label;
  std::string policy;   ///< resolved policy name (PREMA systems; "" otherwise)
  std::string backend;  ///< "sim" | "thread"
  double makespan = 0.0;
  std::vector<util::TimeLedger> ledgers;
  std::uint64_t migrations = 0;
  std::int64_t executed = 0;

  /// Conservation audit (PREMA systems): every unit executed exactly once,
  /// every mobile object resident at exactly one processor, no migration
  /// handoff left open, and the run ended by detecting termination. Checked
  /// fatally under fault plans; always reported.
  std::size_t resident = 0;
  std::size_t in_transit = 0;
  bool audit_ok = false;

  /// Path the Chrome trace was written to ("" when tracing was off).
  std::string trace_file;
};

/// Per-panel trace file name: inserts "-<panel letter>" before the extension
/// of `base` (e.g. "fig3.json" + panel (c) -> "fig3-c.json").
std::string trace_output_path(const std::string& base, System sys);

/// Run one system configuration on the emulated machine.
RunReport run_synthetic(System sys, const SyntheticConfig& cfg);

/// Print one panel in the style of the paper's figures: the per-category
/// breakdown plus the summary lines the text quotes.
void print_panel(std::ostream& os, const RunReport& r);

/// Print a one-line-per-system comparison table.
void print_comparison(std::ostream& os, const std::vector<RunReport>& rs);

}  // namespace prema::bench
