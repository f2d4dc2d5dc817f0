#pragma once

#include <string>
#include <utility>
#include <vector>

#include "service/arrivals.hpp"
#include "service/latency.hpp"
#include "service/ledger.hpp"

/// \file service_harness.hpp
/// Scenario driver for open-loop service mode (Runtime::run_service): builds
/// a machine (emulated or real threads), a fleet of request-shard mobile
/// objects, and an arrival stream, runs the service window, and distills the
/// latency ledger into the SLO numbers the sweep reports — p50/p99/p999
/// sojourn and throughput — plus the audits that make the numbers
/// trustworthy: arrivals == completions (open-loop conservation) and
/// a TimeLedger reconciliation (requests' nominal compute seconds vs the
/// machine's accounted computation).
///
/// Requests route by client hash onto shards created on the client's home
/// rank; once the balancer migrates a shard, MOL forwarding keeps routing
/// requests to it wherever it lives — so a migrated hot shard takes its
/// traffic with it, which is exactly the behavior under test.

namespace prema::bench {

struct ServiceScenario {
  std::string backend = "sim";  ///< "sim" | "thread"
  int nprocs = 16;
  /// Emulated processor speed (sim backend; paper's 333 Mflops).
  double proc_mflops = 333.0;
  /// Real-thread compute conversion rate (thread backend).
  double thread_mflops = 2000.0;

  service::ArrivalConfig arrivals;
  double duration_s = 0.5;
  double epoch_s = 25e-3;

  /// Request shards per rank. Few and coarse: a hot shard is worth moving.
  int shards_per_proc = 8;
  std::size_t shard_payload_bytes = 512;

  /// Balancing policy registry name ("null" disables balancing).
  std::string policy = "work_stealing";
  double low_watermark = 1.0;

  /// Mid-window policy switches, applied in time order at epoch ticks (see
  /// ServiceConfig::policy_switches). The topology-aware sfc policy is the
  /// natural switch *target*: it ignores stray in-flight scalar wire tags,
  /// and the Balancer absorbs topology-range tags that an early-switching
  /// rank sends to a peer still running a scalar policy.
  std::vector<std::pair<double, std::string>> policy_switches;

  /// Canned fault profile; "mid-pause" is the elasticity scenario (node 1
  /// leaves mid-run). Anything but "none" engages reliable transport.
  std::string fault_profile = "none";
  std::uint64_t fault_seed = 7;

  /// When non-empty, record and export a Chrome trace to this path.
  std::string trace_out;
  std::size_t trace_capacity = 1 << 16;

  std::uint64_t seed = 2003;
};

struct ServiceReport {
  std::string backend;
  std::string policy;
  std::string model;          ///< arrival model name
  std::string fault_profile;
  double offered_rate = 0.0;  ///< requests/s per proc (config echo)
  double duration_s = 0.0;
  double makespan = 0.0;      ///< injection window + drain tail

  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  bool audit_ok = false;      ///< arrivals == completions (+ object census)

  double throughput_rps = 0.0;  ///< completions / duration, whole machine
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;

  std::uint64_t migrations = 0;
  std::uint64_t term_waves = 0;

  /// TimeLedger reconciliation: nominal request compute seconds vs the
  /// machine's accounted kComputation (percent difference; ~0 on sim,
  /// slowdown faults legitimately inflate the accounted side).
  double request_comp_s = 0.0;
  double ledger_comp_s = 0.0;
  double ledger_delta_pct = 0.0;

  /// Merged sojourn histogram (for goldens / further percentiles).
  service::LatencyHistogram histogram;

  std::string trace_file;
};

/// Run one service scenario end to end and distill the report. Audit results
/// land in ServiceReport::audit_ok (callers assert as appropriate).
ServiceReport run_service_scenario(const ServiceScenario& sc);

}  // namespace prema::bench
