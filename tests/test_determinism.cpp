#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "bench_support/service_harness.hpp"
#include "bench_support/synthetic.hpp"

/// \file test_determinism.cpp
/// The determinism contract behind the paper reproduction: the emulated
/// machine advances virtual time from seeded RNGs only, so two runs of the
/// same configuration must agree bit-for-bit — makespan, ledger totals, and
/// the exported Chrome trace JSON byte-identically. Everything in Figures
/// 3-6 rests on this; a stray wall-clock read or iteration over a
/// pointer-keyed container would break it silently, which is why the trace
/// comparison is byte-wise on the files (and why prema_analyze bans
/// steady_clock/rand()/time() outside the thread backend).

namespace prema::bench {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

SyntheticConfig small_config(const std::string& trace_base) {
  SyntheticConfig cfg;
  cfg.nprocs = 16;
  cfg.units_per_proc = 24;
  cfg.heavy_fraction = 0.5;
  cfg.seed = 2003;
  cfg.trace_out = trace_base;
  return cfg;
}

TEST(Determinism, Fig3WorkloadTracesAreByteIdentical) {
  const auto report_a =
      run_synthetic(System::kPremaImplicit, small_config("determinism_a.json"));
  const auto report_b =
      run_synthetic(System::kPremaImplicit, small_config("determinism_b.json"));

  // The cheap scalar checks first, for a readable failure...
  EXPECT_DOUBLE_EQ(report_a.makespan, report_b.makespan);
  EXPECT_EQ(report_a.migrations, report_b.migrations);
  EXPECT_EQ(report_a.executed, report_b.executed);
  EXPECT_DOUBLE_EQ(report_a.comp_stddev, report_b.comp_stddev);

  // ...then the real contract: the full event streams, byte for byte.
  ASSERT_FALSE(report_a.trace_file.empty());
  ASSERT_FALSE(report_b.trace_file.empty());
  const std::string bytes_a = slurp(report_a.trace_file);
  const std::string bytes_b = slurp(report_b.trace_file);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_TRUE(bytes_a == bytes_b)
      << "trace JSON diverged between two identically seeded runs ("
      << bytes_a.size() << " vs " << bytes_b.size() << " bytes)";
}

TEST(Determinism, FaultInjectedTracesAreByteIdentical) {
  // The fault plan draws every wire fate from seeded per-link RNG streams, so
  // a faulty run is exactly as reproducible as a clean one: same profile +
  // same fault seed = the same drops, duplicates, reorderings, retransmits
  // and acks, event for event, byte for byte in the exported trace.
  auto cfg_a = small_config("determinism_fault_a.json");
  cfg_a.fault_profile = "lossy1pct";
  cfg_a.fault_seed = 13;
  auto cfg_b = small_config("determinism_fault_b.json");
  cfg_b.fault_profile = "lossy1pct";
  cfg_b.fault_seed = 13;

  const auto report_a = run_synthetic(System::kPremaImplicit, cfg_a);
  const auto report_b = run_synthetic(System::kPremaImplicit, cfg_b);
  EXPECT_DOUBLE_EQ(report_a.makespan, report_b.makespan);
  EXPECT_EQ(report_a.executed, report_b.executed);
  ASSERT_FALSE(report_a.trace_file.empty());
  ASSERT_FALSE(report_b.trace_file.empty());
  const std::string bytes_a = slurp(report_a.trace_file);
  const std::string bytes_b = slurp(report_b.trace_file);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_TRUE(bytes_a == bytes_b)
      << "fault-injected trace JSON diverged between two identically seeded "
         "runs ("
      << bytes_a.size() << " vs " << bytes_b.size() << " bytes)";

  // A different fault seed must give a different schedule (the knob works).
  auto cfg_c = small_config("determinism_fault_c.json");
  cfg_c.fault_profile = "lossy1pct";
  cfg_c.fault_seed = 14;
  const auto report_c = run_synthetic(System::kPremaImplicit, cfg_c);
  EXPECT_EQ(report_c.executed, report_a.executed);  // still exactly-once
  EXPECT_TRUE(bytes_a != slurp(report_c.trace_file));
}

TEST(Determinism, ServiceModeTracesAreByteIdentical) {
  // Service mode layers timer-driven arrivals, epoch ticks and a gated
  // termination phase on top of the emulator — all of it still seeded, so
  // the contract extends: identical seeds give byte-identical service
  // traces, arrival for arrival, completion for completion.
  auto scenario = [](const std::string& trace_out) {
    ServiceScenario sc;
    sc.backend = "sim";
    sc.nprocs = 8;
    sc.duration_s = 0.12;
    sc.policy = "work_stealing";
    sc.arrivals.rate_per_proc = 30.0;
    sc.trace_out = trace_out;
    return sc;
  };
  const auto report_a = run_service_scenario(scenario("determinism_svc_a.json"));
  const auto report_b = run_service_scenario(scenario("determinism_svc_b.json"));

  EXPECT_TRUE(report_a.audit_ok);
  EXPECT_DOUBLE_EQ(report_a.makespan, report_b.makespan);
  EXPECT_EQ(report_a.arrivals, report_b.arrivals);
  EXPECT_EQ(report_a.completions, report_b.completions);
  EXPECT_EQ(report_a.migrations, report_b.migrations);

  ASSERT_FALSE(report_a.trace_file.empty());
  ASSERT_FALSE(report_b.trace_file.empty());
  const std::string bytes_a = slurp(report_a.trace_file);
  const std::string bytes_b = slurp(report_b.trace_file);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_TRUE(bytes_a == bytes_b)
      << "service trace JSON diverged between two identically seeded runs ("
      << bytes_a.size() << " vs " << bytes_b.size() << " bytes)";
}

TEST(Determinism, EveryScalarPolicyTraceIsByteIdentical) {
  // The topology-aware PolicyContext refactor must not perturb the scalar
  // paper policies: each of them still produces byte-identical traces across
  // identically seeded runs — with unit coordinates registered (registration
  // is a no-op while topology accounting is off, so the migration wire image
  // and hence every traced byte stays exactly as before the refactor).
  for (const char* policy : {"null", "work_stealing", "diffusion", "gradient",
                             "master", "multilist"}) {
    auto cfg_a = small_config(std::string("determinism_") + policy + "_a.json");
    cfg_a.policy = policy;
    auto cfg_b = small_config(std::string("determinism_") + policy + "_b.json");
    cfg_b.policy = policy;
    const auto report_a = run_synthetic(System::kPremaImplicit, cfg_a);
    const auto report_b = run_synthetic(System::kPremaImplicit, cfg_b);
    EXPECT_TRUE(report_a.audit_ok) << policy;
    EXPECT_DOUBLE_EQ(report_a.makespan, report_b.makespan) << policy;
    EXPECT_EQ(report_a.migrations, report_b.migrations) << policy;
    ASSERT_FALSE(report_a.trace_file.empty());
    ASSERT_FALSE(report_b.trace_file.empty());
    const std::string bytes_a = slurp(report_a.trace_file);
    ASSERT_FALSE(bytes_a.empty());
    EXPECT_TRUE(bytes_a == slurp(report_b.trace_file))
        << "trace JSON diverged for scalar policy " << policy;
  }
}

TEST(Determinism, TopologyPoliciesTracesAreByteIdentical) {
  // The topology-aware sfc policy adds coordinate gossip, histogram
  // exchanges, and a migration-image appendix — all of it seeded and
  // map-ordered, so the byte-for-byte contract must extend to it unchanged.
  auto cfg_a = small_config("determinism_sfc_a.json");
  cfg_a.policy = "sfc";
  auto cfg_b = small_config("determinism_sfc_b.json");
  cfg_b.policy = "sfc";
  const auto report_a = run_synthetic(System::kPremaImplicit, cfg_a);
  const auto report_b = run_synthetic(System::kPremaImplicit, cfg_b);
  EXPECT_TRUE(report_a.audit_ok);
  EXPECT_DOUBLE_EQ(report_a.makespan, report_b.makespan);
  ASSERT_FALSE(report_a.trace_file.empty());
  ASSERT_FALSE(report_b.trace_file.empty());
  const std::string bytes_a = slurp(report_a.trace_file);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_TRUE(bytes_a == slurp(report_b.trace_file))
      << "trace JSON diverged for the sfc policy";
}

TEST(Determinism, ExplicitPollingTracesAreByteIdenticalToo) {
  const auto report_a =
      run_synthetic(System::kPremaExplicit, small_config("determinism_c.json"));
  const auto report_b =
      run_synthetic(System::kPremaExplicit, small_config("determinism_d.json"));
  EXPECT_DOUBLE_EQ(report_a.makespan, report_b.makespan);
  ASSERT_FALSE(report_a.trace_file.empty());
  ASSERT_FALSE(report_b.trace_file.empty());
  EXPECT_TRUE(slurp(report_a.trace_file) == slurp(report_b.trace_file));
}

}  // namespace
}  // namespace prema::bench
