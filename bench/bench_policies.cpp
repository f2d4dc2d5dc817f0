// Policy-suite benchmark: balancing quality (per-proc computation stddev),
// LB overhead (% of computation), and migration rate for every registry
// policy but "null" — the five scalar paper policies plus the
// topology-aware SFC one — on the Figure-5 workload shape (50% heavy units,
// heavy = 1.2x light), on both machine backends. Emits BENCH_policies.json
// (checked in at the repo root; CI re-generates and uploads it).
//
// Flags: --out=<path>   JSON report path (default BENCH_policies.json)
//        --full         paper-sized sim runs (default is scaled down so the
//                       thread backend finishes in CI time)
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support/bench_json.hpp"
#include "bench_support/synthetic.hpp"
#include "ilb/policy.hpp"
#include "support/assert.hpp"

using namespace prema::bench;

namespace {

SyntheticConfig fig5_config(const std::string& backend, bool full) {
  // Figure 5 shape: 50% of units heavy, heavy = 1.2x light.
  SyntheticConfig cfg;
  cfg.backend = backend;
  cfg.heavy_fraction = 0.5;
  if (backend == "thread") {
    cfg.nprocs = 4;
    cfg.units_per_proc = 16;
    cfg.heavy_mflop = 30.0;  // scaled: real spin time must stay CI-sized
    cfg.light_mflop = 25.0;
  } else {
    cfg.nprocs = full ? 128 : 8;
    cfg.units_per_proc = full ? 864 : 24;
    cfg.heavy_mflop = 300.0;
    cfg.light_mflop = 250.0;
  }
  return cfg;
}

void emit_run(JsonWriter& jw, const RunReport& r) {
  jw.begin_object();
  jw.field("backend", r.backend);
  jw.field("policy", r.policy);
  jw.field("makespan_s", r.makespan);
  jw.field("quality_stddev_s", r.comp_stddev);
  jw.field("overhead_pct", r.overhead_pct);
  jw.field("migrations", r.migrations);
  jw.field("migrations_per_sec",
           r.makespan > 0.0 ? static_cast<double>(r.migrations) / r.makespan
                            : 0.0);
  jw.field("executed", r.executed);
  jw.field("audit_ok", r.audit_ok);
  jw.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_policies.json";
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out = arg + 6;
    } else if (std::strcmp(arg, "--full") == 0) {
      full = true;
    } else {
      std::cerr << "unknown flag: " << arg << "\n"
                << "usage: " << argv[0] << " [--out=<path>] [--full]\n";
      return 2;
    }
  }

  BenchReport report(out, "bench_policies",
                     "balancing quality, overhead, and migration rate per "
                     "policy on the Figure-5 workload, both backends");
  if (!report.ok()) {
    std::cerr << "cannot open " << out << " for writing\n";
    return 1;
  }
  JsonWriter& jw = report.json();
  jw.field("full", full);
  report.begin_runs();

  std::cout << std::unitbuf;
  std::cout << "Policy benchmark (Figure-5 workload shape)"
            << (full ? " [full]" : "") << "\n";
  char buf[160];
  for (const char* backend : {"sim", "thread"}) {
    for (const std::string& policy : prema::ilb::policy_names()) {
      if (policy == "null") continue;
      SyntheticConfig cfg = fig5_config(backend, full);
      cfg.policy = policy;
      const RunReport r = run_synthetic(System::kPremaImplicit, cfg);
      PREMA_CHECK_MSG(r.audit_ok, "bench_policies: conservation audit failed");
      std::snprintf(buf, sizeof buf,
                    "  %-6s %-15s makespan %8.2f s  stddev %7.3f  overhead "
                    "%7.4f%%  migr %5llu\n",
                    r.backend.c_str(), r.policy.c_str(), r.makespan,
                    r.comp_stddev, r.overhead_pct,
                    static_cast<unsigned long long>(r.migrations));
      std::cout << buf;
      emit_run(jw, r);
    }
  }
  std::cout << "report written to " << out << "\n";
  return 0;
}
