// Open-loop service mode: continuous load balancing under live traffic.
// Sweeps offered load (as a fraction of per-processor capacity) across both
// machine backends and two balancing policies, reporting the tail-latency SLO
// numbers (p50/p99/p999 sojourn) and throughput, plus an elasticity scenario
// where one node pauses mid-run ("mid-pause") and the delivery audit must
// still balance arrivals against completions.
//
// Flags: --smoke           short CI-sized windows (same scenario structure)
//        --out=<path>      JSON report path (default BENCH_service.json)
//        --backend=<name>  sim | thread | both (default both)
//        --policy=<name>   sweep only this policy (any registry name,
//                          including sfc; default both classics). An
//                          unknown name here or in --policy-switch exits 2
//                          with the registry names.
//        --policy-switch=t:name  swap every rank's policy to `name` at the
//                          first epoch tick at/after machine time t (repeat
//                          for a schedule). Applied to the mid-window switch
//                          scenario, which defaults to work_stealing -> sfc
//                          halfway through the injection window. A time
//                          that is not in [0, window) exits 2 (window 0.2 s
//                          with --smoke, 0.5 s without).
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/bench_json.hpp"
#include "bench_support/service_harness.hpp"
#include "policy_flag.hpp"
#include "support/assert.hpp"

using namespace prema::bench;
using prema::service::ArrivalModel;

namespace {

/// Mean request cost implied by the arrival config's bimodal draw.
double mean_cost_mflop(const prema::service::ArrivalConfig& a) {
  return a.cost_mean_mflop *
         ((1.0 - a.heavy_fraction) + a.heavy_fraction * a.heavy_mult);
}

ServiceScenario base_scenario(const std::string& backend, bool smoke) {
  ServiceScenario sc;
  sc.backend = backend;
  if (backend == "thread") {
    sc.nprocs = 4;
    sc.duration_s = smoke ? 0.12 : 0.3;
  } else {
    sc.nprocs = 16;
    sc.duration_s = smoke ? 0.2 : 0.5;
  }
  sc.epoch_s = 25e-3;
  return sc;
}

/// Offered load as a utilization fraction of one processor's capacity.
void set_utilization(ServiceScenario& sc, double util) {
  const double mflops = sc.backend == "thread" ? sc.thread_mflops : sc.proc_mflops;
  sc.arrivals.rate_per_proc = util * mflops / mean_cost_mflop(sc.arrivals);
}

void print_run(const ServiceReport& r, double util) {
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "  %-6s %-13s %-7s %-9s util %.2f  rate %7.1f/s  "
                "p50 %7.3f ms  p99 %8.3f ms  p999 %8.3f ms  thru %8.1f rps  "
                "migr %4llu  %s\n",
                r.backend.c_str(), r.policy.c_str(), r.model.c_str(),
                r.fault_profile.c_str(), util, r.offered_rate, r.p50_ms,
                r.p99_ms, r.p999_ms, r.throughput_rps,
                static_cast<unsigned long long>(r.migrations),
                r.audit_ok ? "audit-ok" : "AUDIT-FAIL");
  std::cout << buf;
}

void emit_run(JsonWriter& jw, const ServiceReport& r, double util) {
  jw.begin_object();
  jw.field("backend", r.backend);
  jw.field("policy", r.policy);
  jw.field("arrival_model", r.model);
  jw.field("fault_profile", r.fault_profile);
  jw.field("utilization", util);
  jw.field("offered_rate_per_proc", r.offered_rate);
  jw.field("duration_s", r.duration_s);
  jw.field("makespan_s", r.makespan);
  jw.field("arrivals", r.arrivals);
  jw.field("completions", r.completions);
  jw.field("audit_ok", r.audit_ok);
  jw.field("throughput_rps", r.throughput_rps);
  jw.field("sojourn_mean_ms", r.mean_ms);
  jw.field("sojourn_p50_ms", r.p50_ms);
  jw.field("sojourn_p99_ms", r.p99_ms);
  jw.field("sojourn_p999_ms", r.p999_ms);
  jw.field("sojourn_max_ms", r.max_ms);
  jw.field("migrations", r.migrations);
  jw.field("term_waves", r.term_waves);
  jw.field("request_comp_s", r.request_comp_s);
  jw.field("ledger_comp_s", r.ledger_comp_s);
  jw.field("ledger_delta_pct", r.ledger_delta_pct);
  jw.end_object();
}

ServiceReport run_and_emit(const ServiceScenario& sc, double util,
                           JsonWriter& jw) {
  const ServiceReport r = run_service_scenario(sc);
  // Open-loop conservation holds for every scenario, faults included: at
  // quiescence every injected request has completed exactly once and every
  // shard is resident at exactly one processor.
  PREMA_CHECK_MSG(r.audit_ok, "service delivery audit failed");
  print_run(r, util);
  emit_run(jw, r, util);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_service.json";
  std::string backend = "both";
  std::string only_policy;
  std::vector<std::pair<double, std::string>> switches;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out = arg + 6;
    } else if (std::strncmp(arg, "--backend=", 10) == 0) {
      backend = arg + 10;
    } else if (std::strncmp(arg, "--policy=", 9) == 0) {
      only_policy = arg + 9;
      if (!known_policy(only_policy)) return 2;
    } else if (std::strncmp(arg, "--policy-switch=", 16) == 0) {
      const std::string spec = arg + 16;
      const auto colon = spec.find(':');
      char* end = nullptr;
      const double t = std::strtod(spec.c_str(), &end);
      if (colon == std::string::npos || colon == 0 ||
          end != spec.c_str() + colon || colon + 1 >= spec.size()) {
        std::cerr << "bad --policy-switch spec (want t:name): " << spec << "\n";
        return 2;
      }
      switches.emplace_back(t, spec.substr(colon + 1));
      if (!known_policy(switches.back().second)) return 2;
    } else {
      std::cerr << "unknown flag: " << arg << "\n"
                << "usage: " << argv[0]
                << " [--smoke] [--out=<path>] [--backend=sim|thread|both]"
                   " [--policy=<name>] [--policy-switch=t:name]...\n";
      return 2;
    }
  }
  if (backend != "sim" && backend != "thread" && backend != "both") {
    std::cerr << "unknown backend: " << backend << "\n";
    return 2;
  }
  // A switch must fall inside the switch scenario's injection window, or
  // the report would name a switch that never happened.
  const double switch_window = base_scenario("sim", smoke).duration_s;
  for (const auto& [t, name] : switches) {
    if (!(t >= 0.0 && t < switch_window)) {
      std::cerr << "bad --policy-switch time: " << t << "\n";
      return 2;
    }
  }

  std::cout << std::unitbuf;  // progress lines survive a mid-sweep abort

  std::vector<std::string> backends;
  if (backend == "both" || backend == "sim") backends.push_back("sim");
  if (backend == "both" || backend == "thread") backends.push_back("thread");

  BenchReport report(out, "service_sweep",
                     "open-loop service mode: sojourn-latency SLOs vs offered load");
  if (!report.ok()) {
    std::cerr << "cannot open " << out << " for writing\n";
    return 1;
  }
  JsonWriter& jw = report.json();
  jw.field("smoke", smoke);
  report.begin_runs();

  std::cout << "Service-mode sweep (open-loop arrivals, continuous balancing)"
            << (smoke ? " [smoke]" : "") << "\n";

  std::vector<std::string> policies;
  if (only_policy.empty()) {
    policies = {"work_stealing", "diffusion"};
  } else {
    policies = {only_policy};
  }

  const double utils[] = {0.5, 0.7, 0.9};
  for (const auto& be : backends) {
    for (const auto& policy : policies) {
      for (const double util : utils) {
        ServiceScenario sc = base_scenario(be, smoke);
        sc.policy = policy;
        set_utilization(sc, util);
        run_and_emit(sc, util, jw);
      }
    }
    // Arrival-model variety at mid load: bursty (MMPP) and diurnal streams
    // stress the balancer with time-varying offered load.
    for (const ArrivalModel m : {ArrivalModel::kBursty, ArrivalModel::kDiurnal}) {
      ServiceScenario sc = base_scenario(be, smoke);
      sc.policy = policies.front();
      sc.arrivals.model = m;
      set_utilization(sc, 0.7);
      run_and_emit(sc, 0.7, jw);
    }
  }

  // Elasticity: node 1 pauses mid-run (and runs 2x slow) under the canned
  // "mid-pause" profile; the balancer must route around it and the delivery
  // audit must still balance. Sim backend (pause release is emulator-driven).
  if (backend != "thread") {
    for (const auto& policy : policies) {
      ServiceScenario sc = base_scenario("sim", smoke);
      sc.policy = policy;
      sc.fault_profile = "mid-pause";
      sc.duration_s = smoke ? 0.3 : 0.5;  // keep the pause window mid-run
      set_utilization(sc, 0.7);
      run_and_emit(sc, 0.7, jw);
    }
  }

  // Mid-window policy switch: start on work_stealing, swap every rank to a
  // topology-aware policy at an epoch tick (default sfc halfway through the
  // injection window, or the --policy-switch schedule), and score the
  // combined run. Topology accounting is on from t=0 (run_service pre-scans
  // the schedule), and the conservation audit must still balance across the
  // swap — in-flight pre-switch traffic included.
  if (backend != "thread") {
    ServiceScenario sc = base_scenario("sim", smoke);
    sc.policy = "work_stealing";
    if (switches.empty()) switches.emplace_back(sc.duration_s / 2, "sfc");
    sc.policy_switches = switches;
    set_utilization(sc, 0.7);
    run_and_emit(sc, 0.7, jw);
  }

  std::cout << "report written to " << out << "\n";
  return 0;
}
