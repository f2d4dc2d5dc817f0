#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_support/service_harness.hpp"
#include "bench_support/synthetic.hpp"
#include "support/time_ledger.hpp"
#include "trace/counters.hpp"

/// \file drivers.hpp
/// The benchmark's own drivers for the paper's six system configurations
/// and for open-loop service mode, all on the emulated machine. They build
/// the same machines, runtimes and objects as run_synthetic and
/// run_service_scenario (the parity check holds them to that), and add what
/// the benchmark needs: seeded unit costs, host-time splits, the audits, and
/// the traced variant with the forwarding policy of probes.hpp.

namespace perfbench {

/// Input of the synthetic benchmark (paper §5): the figure binaries' config
/// plus a seeded per-unit cost jitter, so each seed is a distinct input of
/// the same mix. Unit costs are nominal (heavy or light) times a factor
/// drawn uniformly from [1 - cost_jitter, 1 + cost_jitter].
struct BatchSpec {
  prema::bench::SyntheticConfig cfg;
  double cost_jitter = 0.05;
};

/// Outcome of one system run.
struct SystemResult {
  prema::bench::System system{};
  bool service = false;

  // Host time.
  double wall_s = 0.0;   ///< construction through the end of run()
  double setup_s = 0.0;  ///< construction, registration and main callbacks
  /// Host seconds -> reference-host seconds for this run; set by the caller
  /// from the calibration loop timed around it (main.cpp).
  double scale = 1.0;

  // Virtual results: deterministic for a given input.
  double makespan = 0.0;
  double window_s = 0.0;  ///< service window (service runs only)
  std::vector<prema::util::TimeLedger> ledgers;
  /// Sojourn of every completed unit (submitted at t = 0) or request, in
  /// seconds, sorted.
  std::vector<double> sojourns;
  std::uint64_t ops = 0;  ///< units or requests
  std::uint64_t ops_failed = 0;
  std::uint64_t objects = 0;
  std::uint64_t events = 0;
  std::uint64_t migrations = 0;
  std::uint64_t forwards = 0;
  std::uint64_t term_waves = 0;
  std::uint64_t balancer_polls = 0;
  /// First audit that failed, empty when every audit held.
  std::string audit;

  // Traced runs only: recorder counters summed over processors.
  prema::trace::ProcCounters counters;
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;

  [[nodiscard]] double ledger_sum(prema::util::TimeCategory c) const;
  /// Stddev of per-processor computation time (the paper's quality measure).
  [[nodiscard]] double comp_stddev() const;
  /// Messaging + scheduling + polling as a percentage of computation (§5).
  [[nodiscard]] double overhead_pct() const;
  [[nodiscard]] double sync_pct() const;
  /// Exact sojourn quantile, seconds (nearest rank; 0 when none completed).
  [[nodiscard]] double sojourn_quantile(double q) const;
  /// Completions per second of the service window, or of the makespan.
  [[nodiscard]] double throughput_rps() const;
  /// True when every virtual result and count equals `o`'s.
  [[nodiscard]] bool same_virtual(const SystemResult& o) const;
};

/// Ring capacity per processor in traced runs. The recorder's counters
/// survive ring overflow, and the benchmark reads only counters, so a small
/// ring loses nothing it reports while keeping 2048-proc runs in memory.
inline constexpr std::size_t kTraceRing = 256;

/// One of the six figure panels. `traced` turns on the trace recorder and
/// the forwarding policy; the probes record into g_spans when it is set.
SystemResult run_batch(prema::bench::System sys, const BatchSpec& spec, bool traced);

/// Set the arrival rate so the offered load is `utilization` of each
/// processor's capacity (service_sweep's definition).
void set_utilization(prema::bench::ServiceScenario& sc, double utilization);

/// Open-loop service mode with the given polling mode.
SystemResult run_service(const prema::bench::ServiceScenario& sc, bool explicit_polling,
                         bool traced);

/// Run the drivers on small inputs without cost jitter and compare them with
/// run_synthetic (all six panels, both the default and the sfc policy) and
/// run_service_scenario. Returns the mismatches found, one line each.
std::vector<std::string> parity_check();

}  // namespace perfbench
