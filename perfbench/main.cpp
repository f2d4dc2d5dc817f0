// Host-time and balance-quality benchmark of the PREMA reproduction.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs the named workload on the emulated machine, repeating it until S
// seconds have passed, checks every repetition's outputs, and prints each
// metric by name with its unit; the last line is one JSON object. With
// --trace 0 it reports the end-to-end metrics of untraced repetitions. With
// --trace 1 it alternates untraced and traced repetitions and reports the
// per-layer metrics; the traced ones must reproduce the untraced virtual
// results and counts exactly. Host times are scaled to the reference host's
// speed by a calibration loop timed around every system run (HostSpeed).
// perfbench/README.md describes the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "drivers.hpp"
#include "probes.hpp"

namespace {

using perfbench::Layer;
using perfbench::LayerTimes;
using perfbench::SystemResult;
using prema::bench::System;
using prema::util::TimeCategory;
using Rep = std::vector<SystemResult>;
using Clock = std::chrono::steady_clock;

struct Workload {
  bool service = false;
  perfbench::BatchSpec batch;
  prema::bench::ServiceScenario svc;
  std::vector<System> systems;
};

/// The workloads. Each runs the explicit (b) and implicit (c) polling PREMA
/// systems; fig5_paper adds the paper's other four panels.
bool make_workload(const std::string& name, std::uint64_t seed, Workload& w) {
  w.batch.cfg.seed = seed;
  w.batch.cfg.heavy_fraction = 0.5;  // Fig. 5 mix: half the units heavy,
  w.batch.cfg.heavy_mflop = 300.0;   // heavy = 1.2x light (250 Mflop)
  w.systems = {System::kPremaExplicit, System::kPremaImplicit};
  if (name == "fig5_paper") {
    w.systems = {System::kNoLB,          System::kPremaExplicit, System::kPremaImplicit,
                 System::kStopRepartition, System::kCharmNoSync,  System::kCharmSync};
  } else if (name == "scale_2048") {
    // Balancing and termination traffic, not units, make the events here:
    // 27 units per processor give almost the events of 108 at a third of
    // the memory and half the host time.
    w.batch.cfg.nprocs = 2048;
    w.batch.cfg.units_per_proc = 27;
  } else if (name == "sfc_churn") {
    // The policy's host time grows with the square of the units per
    // processor; at 108 a repetition takes ~11 s and a run holds too few.
    w.batch.cfg.nprocs = 16;
    w.batch.cfg.units_per_proc = 54;
    w.batch.cfg.policy = "sfc";
  } else if (name == "service_poisson") {
    // 60 s: ~120k requests per system hold the seed-to-seed spread of the
    // tail latency and the overhead well inside their bounds.
    w.service = true;
    w.svc.nprocs = 64;
    w.svc.shards_per_proc = 8;
    w.svc.duration_s = 60.0;
    w.svc.seed = seed;
    w.svc.arrivals.seed = seed;
    perfbench::set_utilization(w.svc, 0.7);
  } else {
    return false;
  }
  return true;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The host speed the reported seconds are seconds of: one calibration pass
/// takes this long on the reference host. 0.016 s is a single, cold pass on
/// the 4-vCPU machine baseline.json was measured on; its warm passes take
/// ~0.013 s, so scaled times there read ~20% above the clock.
constexpr double kCalibrationRefS = 0.016;

/// Length of the calibration sample after a system run, as a share of the
/// run. The host's speed swings within a second, so a single pass is a poor
/// estimate of its mean over a run of seconds.
constexpr double kCalibrationShare = 0.05;

volatile double g_calibration_sink = 0.0;

/// Fixed reference work that shares no code with the program: ordered-map
/// inserts over a fixed key stream, the allocation and pointer-chasing mix
/// the emulator spends its host time on. Runs passes of it for at least
/// `window_s` and returns the mean host time of a pass, seconds.
double calibrate(double window_s) {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  double sink = 0.0;
  int passes = 0;
  double elapsed = 0.0;
  do {
    for (int k = 0; k < 100; ++k) {
      std::map<std::uint32_t, double> m;
      for (int i = 0; i < 1000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        m[static_cast<std::uint32_t>(x >> 44)] += 1.0;
      }
      for (const auto& kv : m) sink += kv.second;
    }
    ++passes;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < window_s);
  g_calibration_sink = sink;
  return elapsed / passes;
}

/// The host is shared and its speed drifts by tens of percent within
/// seconds to minutes, for the program and the calibration loop alike. The
/// loop runs before the first system run and after every one; a run's scale
/// is kCalibrationRefS over the mean of the two samples around it, which
/// turns its host seconds into seconds of the reference host.
class HostSpeed {
 public:
  HostSpeed() {
    calibrate(0.05);  // warm-up
    samples_.push_back(calibrate(0.1));
  }
  /// Call right after a system run of `run_s` host seconds; returns its
  /// scale.
  double next(double run_s) {
    samples_.push_back(calibrate(kCalibrationShare * run_s));
    const double around = 0.5 * (samples_[samples_.size() - 2] + samples_.back());
    return kCalibrationRefS / around;
  }
  [[nodiscard]] double median_s() const { return median(samples_); }

 private:
  std::vector<double> samples_;
};

Rep run_rep(const Workload& w, bool traced, HostSpeed& speed) {
  Rep rep;
  for (const System s : w.systems) {
    rep.push_back(w.service ? perfbench::run_service(w.svc, s == System::kPremaExplicit, traced)
                            : perfbench::run_batch(s, w.batch, traced));
    rep.back().scale = speed.next(rep.back().wall_s);
  }
  return rep;
}

const SystemResult* find(const Rep& rep, System s) {
  for (const auto& r : rep) {
    if (r.system == s) return &r;
  }
  return nullptr;
}

template <typename F>
double median_over(const std::vector<Rep>& reps, F&& f) {
  std::vector<double> v;
  for (const auto& rep : reps) v.push_back(f(rep));
  return median(std::move(v));
}

template <typename F>
double sum(const Rep& rep, F&& f) {
  double s = 0.0;
  for (const auto& r : rep) s += static_cast<double>(f(r));
  return s;
}

/// Host time of one repetition in reference-host seconds.
double wall(const Rep& rep) {
  return sum(rep, [](const SystemResult& r) { return r.scale * r.wall_s; });
}

double setup(const Rep& rep) {
  return sum(rep, [](const SystemResult& r) { return r.scale * r.setup_s; });
}

/// Host time of one repetition as the clock read it.
double raw_wall(const Rep& rep) {
  return sum(rep, [](const SystemResult& r) { return r.wall_s; });
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Report {
 public:
  void add(std::string name, double value, const char* unit) {
    metrics_.push_back({std::move(name), value, unit});
  }
  [[nodiscard]] bool finite() const {
    return std::all_of(metrics_.begin(), metrics_.end(),
                       [](const Metric& m) { return std::isfinite(m.value); });
  }
  void print_table() const {
    for (const auto& m : metrics_) {
      std::printf("  %-28s %20.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit);
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void end_to_end(Report& out, const std::vector<Rep>& reps, double rss_mb) {
  const Rep& rep = reps.front();
  const SystemResult& head = *find(rep, System::kPremaImplicit);
  const SystemResult& expl = *find(rep, System::kPremaExplicit);
  out.add("wall_s", median_over(reps, wall), "s");
  out.add("setup_s", median_over(reps, setup), "s");
  out.add("events_per_s", median_over(reps, [](const Rep& r) {
            return sum(r, [](const SystemResult& s) { return s.events; }) / (wall(r) - setup(r));
          }),
          "1/s");
  out.add("peak_rss_mb", rss_mb, "MB");
  out.add("makespan_s", head.makespan, "s_virt");
  out.add("makespan_explicit_s", expl.makespan, "s_virt");
  out.add("lb_overhead_pct", head.overhead_pct(), "%");
  out.add("p50_ms", head.sojourn_quantile(0.50) * 1e3, "ms_virt");
  out.add("p999_ms", head.sojourn_quantile(0.999) * 1e3, "ms_virt");
  out.add("throughput_rps", head.throughput_rps(), "1/s_virt");
}

void per_layer(Report& out, const std::vector<Rep>& untraced, const std::vector<Rep>& traced,
               const std::vector<LayerTimes>& spans, const HostSpeed& speed) {
  const Rep& rep = traced.front();
  const SystemResult& head = *find(rep, System::kPremaImplicit);
  // Span times are per repetition; scale them by the repetition's
  // time-weighted scale.
  auto span_median = [&](Layer l, double perfbench::LayerTime::*field) {
    std::vector<double> v;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double scale = wall(traced[i]) / raw_wall(traced[i]);
      v.push_back(scale * (spans[i][static_cast<std::size_t>(l)].*field));
    }
    return median(std::move(v));
  };
  auto total = [&](Layer l) { return span_median(l, &perfbench::LayerTime::total_s); };
  auto self = [&](Layer l) { return span_median(l, &perfbench::LayerTime::self_s); };
  auto calls = [&spans](Layer l) {
    return static_cast<double>(spans.front()[static_cast<std::size_t>(l)].calls);
  };
  auto ledger = [&rep](TimeCategory c) {
    return sum(rep, [c](const SystemResult& r) { return r.ledger_sum(c); });
  };
  const double events = sum(rep, [](const SystemResult& r) { return r.events; });
  const double ops = sum(rep, [](const SystemResult& r) { return r.ops; });
  const double migrations = sum(rep, [](const SystemResult& r) { return r.migrations; });
  const double objects = sum(rep, [](const SystemResult& r) { return r.objects; });

  out.add("sim.events", events, "count");
  out.add("sim.events_per_op", events / ops, "events/op");
  out.add("prema.run_self_s", self(Layer::kRun), "s");
  out.add("prema.term_waves", sum(rep, [](const SystemResult& r) { return r.term_waves; }),
          "count");
  out.add("prema.idle_vs", ledger(TimeCategory::kIdle), "s_virt");
  out.add("dmcs.msgs", sum(rep, [](const SystemResult& r) { return r.counters.msgs_sent; }),
          "count");
  out.add("dmcs.bytes", sum(rep, [](const SystemResult& r) { return r.counters.bytes_sent; }),
          "bytes");
  out.add("dmcs.poll_wakeups",
          sum(rep, [](const SystemResult& r) { return r.counters.poll_wakeups; }), "count");
  out.add("dmcs.policy_sends", calls(Layer::kPolicySend), "count");
  out.add("dmcs.policy_send_s", total(Layer::kPolicySend), "s");
  out.add("dmcs.messaging_vs", ledger(TimeCategory::kMessaging), "s_virt");
  out.add("dmcs.polling_vs", ledger(TimeCategory::kPolling), "s_virt");
  out.add("ilb.policy_calls", calls(Layer::kPolicy), "count");
  out.add("ilb.policy_s", total(Layer::kPolicy), "s");
  out.add("ilb.policy_self_s", self(Layer::kPolicy), "s");
  out.add("ilb.migratable_s", total(Layer::kMigratable), "s");
  out.add("ilb.balancer_polls",
          sum(rep, [](const SystemResult& r) { return r.balancer_polls; }), "count");
  out.add("ilb.sfc_cuts", sum(rep, [](const SystemResult& r) { return r.counters.sfc_cuts; }),
          "count");
  out.add("ilb.scheduling_vs", ledger(TimeCategory::kScheduling), "s_virt");
  // The paper's §5 quality measure. Not an end-to-end metric: it hangs on
  // where the last few units land, so it swings ~25% between seeds.
  out.add("ilb.imbalance_stddev_s", head.comp_stddev(), "s_virt");
  out.add("mol.migrations", migrations, "count");
  out.add("mol.migrations_per_object", migrations / objects, "1/object");
  out.add("mol.forwards", sum(rep, [](const SystemResult& r) { return r.forwards; }),
          "count");
  out.add("mol.migrate_s", total(Layer::kMigrate), "s");
  out.add("mol.pack_s", total(Layer::kPack), "s");
  out.add("mol.unpack_s", total(Layer::kUnpack), "s");
  out.add("mol.message_s", total(Layer::kMessage), "s");

  // Per panel: share of the untraced repetition's host time, virtual
  // makespan, and the synchronization the baselines pay. Zero for panels
  // the workload does not run.
  for (const System s : {System::kNoLB, System::kPremaExplicit, System::kPremaImplicit,
                         System::kStopRepartition, System::kCharmNoSync, System::kCharmSync}) {
    const std::string panel = std::string("panel_") + prema::bench::system_panel(s)[1];
    const SystemResult* r = find(rep, s);
    out.add(panel + ".wall_pct", median_over(untraced, [s](const Rep& u) {
              const SystemResult* p = find(u, s);
              return p != nullptr ? 100.0 * p->scale * p->wall_s / wall(u) : 0.0;
            }),
            "%");
    out.add(panel + ".makespan_s", r != nullptr ? r->makespan : 0.0, "s_virt");
    if (s == System::kStopRepartition || s == System::kCharmSync) {
      out.add(panel + ".sync_pct", r != nullptr ? r->sync_pct() : 0.0, "%");
    }
  }

  out.add("service.requests", static_cast<double>(head.sojourns.size()), "count");
  out.add("service.arrival_s", total(Layer::kArrival), "s");
  out.add("service.record_s", total(Layer::kRecord), "s");
  out.add("service.p99_ms", head.sojourn_quantile(0.99) * 1e3, "ms_virt");
  out.add("service.max_ms", head.sojourn_quantile(1.0) * 1e3, "ms_virt");
  out.add("trace.overhead_pct",
          100.0 * (median_over(traced, wall) / median_over(untraced, wall) - 1.0), "%");
  out.add("trace.events", sum(rep, [](const SystemResult& r) { return r.trace_recorded; }),
          "count");
  out.add("trace.dropped", sum(rep, [](const SystemResult& r) { return r.trace_dropped; }),
          "count");
  // The host behind the scaled times: an untraced repetition's unscaled
  // wall time and the calibration loop's time.
  out.add("host.wall_raw_s", median_over(untraced, raw_wall), "s");
  out.add("host.calibration_s", speed.median_s(), "s");
}

void print_rep(const char* kind, std::size_t i, const Rep& rep) {
  std::printf("%s rep %zu:", kind, i);
  for (const auto& r : rep) {
    std::printf("  %s wall %.3f s (setup %.4f s, scale %.3f)",
                prema::bench::system_panel(r.system), r.wall_s, r.setup_s, r.scale);
  }
  std::printf("\n");
}

void print_systems(const Rep& rep) {
  std::printf("  panel      makespan    stddev  overhead%%  migrations     events      ops  audit\n");
  for (const auto& r : rep) {
    std::printf("  %-5s %13.3f %9.3f %10.4f %11llu %10llu %8llu  %s\n",
                prema::bench::system_panel(r.system), r.makespan, r.comp_stddev(),
                r.overhead_pct(), static_cast<unsigned long long>(r.migrations),
                static_cast<unsigned long long>(r.events), static_cast<unsigned long long>(r.ops),
                r.audit.empty() ? "ok" : r.audit.c_str());
  }
  if (const SystemResult* head = find(rep, System::kPremaImplicit)) {
    std::printf("  sojourn of (c) over %zu %s: p50 %.3f ms, p999 %.3f ms\n",
                head->sojourns.size(), head->service ? "requests" : "units",
                head->sojourn_quantile(0.5) * 1e3, head->sojourn_quantile(0.999) * 1e3);
  }
}

void print_spans(const LayerTimes& t) {
  static const char* const kNames[] = {"run",        "main",    "arrival", "handler",
                                       "record",     "message", "policy",  "policy_send",
                                       "migratable", "migrate", "pack",    "unpack"};
  static_assert(std::size(kNames) == static_cast<std::size_t>(Layer::kCount));
  std::printf("  span (traced rep 1, host s)  calls      total_s       self_s\n");
  for (std::size_t i = 0; i < t.size(); ++i) {
    std::printf("  %-16s %9llu %12.6f %12.6f\n", kNames[i],
                static_cast<unsigned long long>(t[i].calls), t[i].total_s, t[i].self_s);
  }
}

/// Adds every repetition's operations to `attempted`; returns the failed
/// ones: those of failed audits, and all of a repetition whose virtual
/// results differ from the reference repetition's.
std::uint64_t check_reps(const Rep& ref, const std::vector<Rep>& reps, const char* kind,
                         std::uint64_t& attempted) {
  std::uint64_t failed = 0;
  for (const auto& rep : reps) {
    for (std::size_t i = 0; i < rep.size(); ++i) {
      const SystemResult& r = rep[i];
      attempted += r.ops;
      if (!r.audit.empty()) {
        std::printf("AUDIT %s %s: %s\n", kind, prema::bench::system_panel(r.system),
                    r.audit.c_str());
      }
      if (!r.same_virtual(ref[i])) {
        std::printf("MISMATCH %s %s: virtual results differ from the first untraced rep\n",
                    kind, prema::bench::system_panel(r.system));
        failed += r.ops;
      } else {
        failed += r.ops_failed;
      }
    }
  }
  return failed;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fig5_paper|scale_2048|sfc_churn|service_poisson "
               "--seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 2003;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    if (std::strcmp(key, "--workload") == 0) {
      name = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      seed = std::strtoull(val, nullptr, 10);
    } else if (std::strcmp(key, "--seconds") == 0) {
      seconds = std::strtod(val, nullptr);
    } else if (std::strcmp(key, "--trace") == 0) {
      trace = std::atoi(val);
    } else {
      return usage(argv[0]);
    }
  }
  Workload w;
  if (argc % 2 == 0 || !make_workload(name, seed, w) || (trace != 0 && trace != 1)) {
    return usage(argv[0]);
  }

  std::printf("perfbench: workload %s, seed %llu, %g s, trace %d\n", name.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace);
  const auto parity = perfbench::parity_check();
  for (const auto& line : parity) std::printf("PARITY %s\n", line.c_str());

  // Repeat until the time budget is spent. The traced run alternates
  // untraced and traced repetitions, so drift in the host's speed hits both.
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  std::vector<LayerTimes> spans;
  double rss_mb = 0.0;
  HostSpeed speed;
  const auto start = Clock::now();
  do {
    untraced.push_back(run_rep(w, false, speed));
    print_rep("untraced", untraced.size(), untraced.back());
    // The first repetition's peak: later ones add allocator fragmentation
    // that grows with the repetition count, i.e. with the host's speed.
    if (untraced.size() == 1) rss_mb = peak_rss_mb();
    if (trace == 1) {
      perfbench::Spans s;
      perfbench::g_spans = &s;
      traced.push_back(run_rep(w, true, speed));
      perfbench::g_spans = nullptr;
      spans.push_back(s.times());
      print_rep("traced", traced.size(), traced.back());
    }
  } while (std::chrono::duration<double>(Clock::now() - start).count() < seconds);

  const Rep& ref = untraced.front();
  print_systems(ref);
  std::printf("  calibration loop: median %.6f s over the run, reference %.6f s\n",
              speed.median_s(), kCalibrationRefS);
  std::uint64_t attempted = 0;
  std::uint64_t failed = check_reps(ref, untraced, "untraced", attempted);
  failed += check_reps(ref, traced, "traced", attempted);

  Report report;
  if (trace == 0) {
    end_to_end(report, untraced, rss_mb);
  } else {
    print_spans(spans.front());
    per_layer(report, untraced, traced, spans, speed);
  }
  report.print_table();
  const bool correct = parity.empty() && failed == 0 && report.finite();
  report.print_json(correct, attempted, failed);
  return 0;
}
