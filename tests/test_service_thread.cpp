#include <gtest/gtest.h>

#include "bench_support/service_harness.hpp"
#include "trace_events.hpp"

/// \file test_service_thread.cpp
/// Service mode on the real-threads backend: the same open-loop scenario the
/// sim tests run, but with real worker/poller threads racing the arrival
/// timers, the balancer cadence and the service_mu-guarded ledger — which is
/// exactly what the TSan job in CI exercises (label "thread").

namespace prema::bench {
namespace {

ServiceScenario thread_scenario(const std::string& policy) {
  ServiceScenario sc;
  sc.backend = "thread";
  sc.nprocs = 4;
  sc.duration_s = 0.1;  // sized for the sanitizer matrix's ~10x slowdown
  sc.epoch_s = 25e-3;
  sc.policy = policy;
  sc.arrivals.rate_per_proc = 120.0;
  return sc;
}

TEST(ServiceThread, WorkStealingAuditBalances) {
  ServiceScenario sc = thread_scenario("work_stealing");
  sc.trace_out = "service_epochs_thread.json";
  const ServiceReport r = run_service_scenario(sc);
  EXPECT_TRUE(r.audit_ok) << "arrivals=" << r.arrivals
                          << " completions=" << r.completions;
  EXPECT_GT(r.arrivals, 0u);
  EXPECT_EQ(r.histogram.count(), r.completions);
  EXPECT_GT(r.p50_ms, 0.0);
  EXPECT_GE(r.p999_ms, r.p50_ms);
  // Every rank's epoch timer fired: each track carries a service-epoch event.
  ASSERT_EQ(r.trace_file, sc.trace_out);
  const auto epochs = testutil::events_per_track(r.trace_file, "service-epoch", sc.nprocs);
  for (int p = 0; p < sc.nprocs; ++p) EXPECT_GT(epochs[p], 0) << "rank " << p;
}

TEST(ServiceThread, DiffusionAuditBalances) {
  const ServiceReport r = run_service_scenario(thread_scenario("diffusion"));
  EXPECT_TRUE(r.audit_ok) << "arrivals=" << r.arrivals
                          << " completions=" << r.completions;
  EXPECT_GT(r.arrivals, 0u);
}

}  // namespace
}  // namespace prema::bench
