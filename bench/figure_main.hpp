#pragma once

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support/synthetic.hpp"
#include "fault/fault_plan.hpp"

/// \file figure_main.hpp
/// Shared driver for the Figure 3-6 reproduction binaries: runs all six
/// panels of one benchmark configuration and prints the per-panel breakdowns
/// plus the comparison table.
///
/// Flags: --smoke                  CI-sized problem (16 procs x 108 units,
///                                 same panel structure); the paper-scale
///                                 default takes seconds (about 6 s for all
///                                 six panels), --policy=sfc 20+ minutes.
///        --trace-out=<file>       export a Chrome/Perfetto trace per panel
///                                 (file gets a "-a".."-f" suffix per system).
///        --fault-profile=<name>   run under a canned fault-injection profile
///                                 (none | lossy1pct | burst-reorder |
///                                 one-slow-node, see EXPERIMENTS.md).
///        --fault-seed=<n>         seed the fault plan's RNG streams.
///        --policy=<name>          override the balancing PREMA panels'
///                                 policy (any registry name, including the
///                                 topology-aware sfc and cluster); panel
///                                 (a) always runs without balancing.

namespace prema::bench {

inline int run_figure(int argc, char** argv, const char* title,
                      double heavy_fraction, double heavy_mflop,
                      const char* paper_values) {
  SyntheticConfig cfg;
  cfg.heavy_fraction = heavy_fraction;
  cfg.heavy_mflop = heavy_mflop;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      cfg.trace_out = arg + 12;
    } else if (std::strncmp(arg, "--fault-profile=", 16) == 0) {
      cfg.fault_profile = arg + 16;
      if (!fault::is_fault_profile(cfg.fault_profile)) {
        std::cerr << "unknown fault profile: " << cfg.fault_profile
                  << " (expected none | lossy1pct | burst-reorder | "
                     "one-slow-node)\n";
        return 2;
      }
    } else if (std::strncmp(arg, "--fault-seed=", 13) == 0) {
      cfg.fault_seed = std::strtoull(arg + 13, nullptr, 10);
    } else if (std::strncmp(arg, "--policy=", 9) == 0) {
      cfg.policy = arg + 9;
    } else {
      std::cerr << "unknown flag: " << arg << "\n"
                << "usage: " << argv[0]
                << " [--smoke] [--trace-out=<file>] [--fault-profile=<name>]"
                   " [--fault-seed=<n>] [--policy=<name>]\n";
      return 2;
    }
  }
  if (smoke) {
    // Same six panels, CI-sized: the paper-scale problem takes seconds, but
    // --policy=sfc 20+ minutes there, which only EXPERIMENTS.md reproduction
    // runs should pay for.
    cfg.nprocs = 16;
    cfg.units_per_proc = 108;
  }

  std::cout << "==========================================================\n"
            << title << "\n"
            << "  " << cfg.nprocs << " procs x " << cfg.units_per_proc
            << " units, heavy fraction " << heavy_fraction * 100
            << "%, heavy " << heavy_mflop << " Mflop vs light "
            << cfg.light_mflop << " Mflop" << (smoke ? " [smoke]" : "")
            << "\n"
            << "  paper's reported makespans: " << paper_values << "\n";
  if (cfg.fault_profile != "none") {
    std::cout << "  fault profile: " << cfg.fault_profile << " (seed "
              << cfg.fault_seed << ") — reliable transport on\n";
  }
  if (!cfg.policy.empty()) {
    std::cout << "  PREMA policy override: " << cfg.policy << "\n";
  }
  std::cout << "==========================================================\n";

  std::vector<RunReport> reports;
  for (const System sys :
       {System::kNoLB, System::kPremaExplicit, System::kPremaImplicit,
        System::kStopRepartition, System::kCharmNoSync, System::kCharmSync}) {
    reports.push_back(run_synthetic(sys, cfg));
    print_panel(std::cout, reports.back());
    std::cout << "\n";
  }
  std::cout << "Summary\n";
  print_comparison(std::cout, reports);
  return 0;
}

}  // namespace prema::bench
