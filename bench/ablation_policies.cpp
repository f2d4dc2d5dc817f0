// Ablation: PREMA's pluggable policy suite (§4: Work Stealing, Diffusion,
// Multi-list Scheduling, plus Gradient, a centralized Master, and the
// topology-aware SFC policy) on the synthetic workload. The framework is the
// paper's contribution; the policy is a plug-in — this shows all of them
// running unchanged on top of it, on both machine backends, with the
// object-conservation audit enforced per run.
//
// Flags: --policy=<name|all>   one registry policy, or the whole suite
//        --backend=sim|thread|both
//        --smoke               CI-sized workload (same structure)
//        --out=<path>          also write the runs as JSON (BENCH_policies.json
//                              at the repo root is `--smoke --backend=both`)
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_support/bench_json.hpp"
#include "bench_support/synthetic.hpp"
#include "ilb/policy.hpp"
#include "policy_flag.hpp"
#include "support/assert.hpp"

using namespace prema::bench;

namespace {

SyntheticConfig make_config(const std::string& backend, bool smoke) {
  SyntheticConfig cfg;
  cfg.backend = backend;
  cfg.heavy_fraction = 0.5;
  if (backend == "thread") {
    // Real threads: small fleet, cheap units — the point is exercising the
    // protocol stack, not wall-clock fidelity.
    cfg.nprocs = 4;
    cfg.units_per_proc = smoke ? 12 : 40;
    cfg.heavy_mflop = 100.0;
    cfg.light_mflop = 50.0;
  } else {
    cfg.nprocs = smoke ? 8 : 32;
    cfg.units_per_proc = smoke ? 24 : 200;
    cfg.heavy_mflop = 500.0;
    cfg.light_mflop = 250.0;
  }
  return cfg;
}

/// One run's JSON object: quality (per-proc computation stddev), LB
/// overhead and migration rate.
void emit_run(JsonWriter& jw, const RunReport& r) {
  jw.begin_object();
  jw.field("backend", r.backend);
  jw.field("policy", r.policy);
  jw.field("makespan_s", r.makespan);
  jw.field("quality_stddev_s", r.comp_stddev);
  jw.field("overhead_pct", r.overhead_pct);
  jw.field("migrations", r.migrations);
  jw.field("migrations_per_sec",
           r.makespan > 0.0 ? static_cast<double>(r.migrations) / r.makespan : 0.0);
  jw.field("executed", r.executed);
  jw.field("audit_ok", r.audit_ok);
  jw.end_object();
}

void run_one(const std::string& backend, const std::string& policy, bool smoke,
             JsonWriter* jw) {
  SyntheticConfig cfg = make_config(backend, smoke);
  cfg.policy = policy;
  const RunReport r = run_synthetic(System::kPremaImplicit, cfg);
  // Conservation must hold for every policy: each unit executed exactly
  // once, each object resident at exactly one processor, no open handoffs.
  PREMA_CHECK_MSG(r.audit_ok, "policy ablation: object conservation audit failed");
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "  %-6s %-15s makespan %8.2f s  stddev %7.2f  overhead "
                "%7.4f%%  migr %5llu  audit-ok\n",
                r.backend.c_str(), r.policy.c_str(), r.makespan, r.comp_stddev,
                r.overhead_pct, static_cast<unsigned long long>(r.migrations));
  std::cout << buf;
  if (jw != nullptr) emit_run(*jw, r);
}

}  // namespace

int main(int argc, char** argv) {
  std::string policy = "all";
  std::string backend = "sim";
  std::string out;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--policy=", 9) == 0) {
      policy = arg + 9;
    } else if (std::strncmp(arg, "--backend=", 10) == 0) {
      backend = arg + 10;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out = arg + 6;
    } else {
      std::cerr << "unknown flag: " << arg << "\n"
                << "usage: " << argv[0]
                << " [--policy=<name|all>] [--backend=sim|thread|both]"
                   " [--smoke] [--out=<path>]\n";
      return 2;
    }
  }
  if (policy != "all" && !known_policy(policy)) return 2;
  if (backend != "sim" && backend != "thread" && backend != "both") {
    std::cerr << "unknown backend: " << backend << "\n";
    return 2;
  }

  std::optional<BenchReport> report;
  if (!out.empty()) {
    report.emplace(out, "ablation_policies",
                   "balancing quality, overhead, and migration rate per policy on "
                   "the synthetic workload");
    if (!report->ok()) {
      std::cerr << "cannot open " << out << " for writing\n";
      return 1;
    }
    report->json().field("smoke", smoke);
    report->begin_runs();
  }
  JsonWriter* jw = report ? &report->json() : nullptr;

  std::cout << std::unitbuf;
  std::cout << "Policy suite on the synthetic workload (50% heavy 2x"
            << (smoke ? ", smoke-sized" : "") << ")\n";

  std::vector<std::string> backends;
  if (backend == "both" || backend == "sim") backends.emplace_back("sim");
  if (backend == "both" || backend == "thread") backends.emplace_back("thread");

  for (const auto& be : backends) {
    if (policy == "all") {
      for (const std::string& p : prema::ilb::policy_names()) run_one(be, p, smoke, jw);
    } else {
      run_one(be, policy, smoke, jw);
    }
  }
  if (report) std::cout << "report written to " << out << "\n";
  return 0;
}
