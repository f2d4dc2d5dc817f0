#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bench_support/service_harness.hpp"
#include "service/arrivals.hpp"
#include "service/latency.hpp"
#include "service/ledger.hpp"
#include "trace_events.hpp"

/// \file test_service.cpp
/// Service mode (open-loop arrivals, continuous balancing): the histogram's
/// bucket geometry and merge algebra, the arrival generators' determinism
/// contract, and end-to-end sim-backend service runs — including the
/// mid-pause elasticity scenario — whose delivery audit must balance.

namespace prema::service {
namespace {

// ---------------------------------------------------------------------------
// LatencyHistogram: bucket geometry
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, BucketBoundariesPartitionTheAxis) {
  // Buckets tile [0, inf): each bucket's upper bound is the next one's lower
  // bound, lower < upper throughout, and index 0 starts at zero.
  EXPECT_EQ(LatencyHistogram::bucket_lower(0), 0.0);
  for (std::size_t i = 0; i + 1 < LatencyHistogram::kBuckets; ++i) {
    EXPECT_LT(LatencyHistogram::bucket_lower(i), LatencyHistogram::bucket_upper(i))
        << "bucket " << i;
    EXPECT_DOUBLE_EQ(LatencyHistogram::bucket_upper(i),
                     LatencyHistogram::bucket_lower(i + 1))
        << "gap/overlap between buckets " << i << " and " << i + 1;
  }
}

TEST(LatencyHistogram, SamplesResolveToTheBucketThatBoundsThem) {
  // A sample indexes into the bucket whose [lower, upper) range contains it,
  // across the whole dynamic range (sub-microsecond to hours).
  for (double s : {0.0, 1e-9, 5e-7, 1e-6, 1.5e-6, 1e-3, 0.0123, 0.5, 1.0,
                   17.0, 3600.0}) {
    const std::size_t i = LatencyHistogram::bucket_index(s);
    ASSERT_LT(i, LatencyHistogram::kBuckets) << "sample " << s;
    EXPECT_GE(s, LatencyHistogram::bucket_lower(i)) << "sample " << s;
    EXPECT_LT(s, LatencyHistogram::bucket_upper(i)) << "sample " << s;
  }
}

TEST(LatencyHistogram, EdgeSamplesLandInUnderflowAndOverflow) {
  // Negative clamps to underflow; beyond the top octave lands in overflow.
  EXPECT_EQ(LatencyHistogram::bucket_index(-1.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(1e300),
            LatencyHistogram::kBuckets - 1);
  LatencyHistogram h;
  h.record(-1.0);
  h.record(1e300);
  EXPECT_EQ(h.count(), 2u);
}

TEST(LatencyHistogram, QuantileErrorIsBoundedBySubBucketWidth) {
  // The representative value returned for a recorded sample is within one
  // sub-bucket's relative error (~1/kSubBuckets within an octave).
  LatencyHistogram h;
  const double sample = 0.0123;
  h.record(sample);
  const double rep = h.percentile(0.5);
  EXPECT_NEAR(rep, sample, sample * (1.0 / LatencyHistogram::kSubBuckets));
}

// ---------------------------------------------------------------------------
// LatencyHistogram: merge algebra
// ---------------------------------------------------------------------------

std::vector<LatencyHistogram> three_histograms() {
  std::vector<LatencyHistogram> h(3);
  for (int i = 0; i < 40; ++i) h[0].record(1e-3 * (i + 1));
  for (int i = 0; i < 25; ++i) h[1].record(5e-2 * (i + 1));
  for (int i = 0; i < 10; ++i) h[2].record(2.0 * (i + 1));
  return h;
}

TEST(LatencyHistogram, MergeIsAssociativeAndCommutative) {
  const auto h = three_histograms();

  LatencyHistogram ab_c;  // (a + b) + c
  ab_c.merge(h[0]);
  ab_c.merge(h[1]);
  ab_c.merge(h[2]);

  LatencyHistogram c_ba;  // c + (b + a)
  c_ba.merge(h[2]);
  c_ba.merge(h[1]);
  c_ba.merge(h[0]);

  EXPECT_TRUE(ab_c == c_ba);
  EXPECT_EQ(ab_c.count(), 75u);
  // Derived statistics agree exactly, not just approximately: they are
  // recomputed from identical integer bucket state.
  EXPECT_DOUBLE_EQ(ab_c.percentile(0.5), c_ba.percentile(0.5));
  EXPECT_DOUBLE_EQ(ab_c.percentile(0.99), c_ba.percentile(0.99));
  EXPECT_DOUBLE_EQ(ab_c.mean(), c_ba.mean());
}

TEST(LatencyHistogram, MergeMatchesRecordingEverythingIntoOne) {
  const auto h = three_histograms();
  LatencyHistogram merged;
  for (const auto& part : h) merged.merge(part);

  LatencyHistogram direct;
  for (int i = 0; i < 40; ++i) direct.record(1e-3 * (i + 1));
  for (int i = 0; i < 25; ++i) direct.record(5e-2 * (i + 1));
  for (int i = 0; i < 10; ++i) direct.record(2.0 * (i + 1));

  EXPECT_TRUE(merged == direct);
}

TEST(LatencyHistogram, PercentileGoldens) {
  // 1000 samples of exactly 1..1000 ms: quantile q resolves to the sample
  // with rank ceil(q*1000), reported as its bucket's representative value —
  // within one sub-bucket of the exact order statistic.
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-3);
  const struct {
    double q, exact_s;
  } goldens[] = {{0.50, 0.500}, {0.90, 0.900}, {0.99, 0.990}, {0.999, 0.999},
                 {1.0, 1.000}};
  for (const auto& g : goldens) {
    EXPECT_NEAR(h.percentile(g.q), g.exact_s,
                g.exact_s * (1.0 / LatencyHistogram::kSubBuckets))
        << "q=" << g.q;
  }
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  EXPECT_EQ(h.percentile(0.5), h.percentile(0.5));  // deterministic
  LatencyHistogram empty;
  EXPECT_DOUBLE_EQ(empty.percentile(0.99), 0.0);
}

// ---------------------------------------------------------------------------
// ArrivalGenerator: determinism and model shape
// ---------------------------------------------------------------------------

TEST(ArrivalGenerator, SameSeedSameRankGivesIdenticalSchedule) {
  for (const ArrivalModel m :
       {ArrivalModel::kPoisson, ArrivalModel::kBursty, ArrivalModel::kDiurnal}) {
    ArrivalConfig cfg;
    cfg.model = m;
    ArrivalGenerator a(cfg, 3, 16);
    ArrivalGenerator b(cfg, 3, 16);
    double now = 0.0;
    for (int i = 0; i < 500; ++i) {
      const double ga = a.next_gap(now);
      const double gb = b.next_gap(now);
      ASSERT_DOUBLE_EQ(ga, gb) << arrival_model_name(m) << " draw " << i;
      ASSERT_GT(ga, 0.0);
      now += ga;
      const Arrival ra = a.next_arrival();
      const Arrival rb = b.next_arrival();
      ASSERT_EQ(ra.client, rb.client);
      ASSERT_DOUBLE_EQ(ra.cost_mflop, rb.cost_mflop);
    }
  }
}

TEST(ArrivalGenerator, DifferentRanksDrawIndependentStreams) {
  ArrivalConfig cfg;
  ArrivalGenerator a(cfg, 0, 16);
  ArrivalGenerator b(cfg, 1, 16);
  // Client ranges partition the population...
  EXPECT_EQ(a.client_first() + a.client_count(), b.client_first());
  // ...and the gap sequences decorrelate immediately.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_gap(0.0) == b.next_gap(0.0)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(ArrivalGenerator, ClientsStayInTheRanksRange) {
  ArrivalConfig cfg;
  ArrivalGenerator g(cfg, 5, 16);
  double now = 0.0;
  for (int i = 0; i < 1000; ++i) {
    now += g.next_gap(now);
    const Arrival a = g.next_arrival();
    EXPECT_GE(a.client, g.client_first());
    EXPECT_LT(a.client, g.client_first() + g.client_count());
    EXPECT_GT(a.cost_mflop, 0.0);
  }
}

TEST(ArrivalGenerator, MeanRateIsRespected) {
  // Long-run mean interarrival ~= 1/rate for every model (bursty and diurnal
  // modulate around the same long-run average).
  for (const ArrivalModel m :
       {ArrivalModel::kPoisson, ArrivalModel::kBursty, ArrivalModel::kDiurnal}) {
    ArrivalConfig cfg;
    cfg.model = m;
    cfg.rate_per_proc = 200.0;
    ArrivalGenerator g(cfg, 0, 4);
    double now = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) now += g.next_gap(now);
    const double mean_rate = n / now;
    EXPECT_NEAR(mean_rate, cfg.rate_per_proc, 0.15 * cfg.rate_per_proc)
        << arrival_model_name(m);
  }
}

TEST(ArrivalModelNames, RoundTrip) {
  for (const ArrivalModel m :
       {ArrivalModel::kPoisson, ArrivalModel::kBursty, ArrivalModel::kDiurnal}) {
    ArrivalModel parsed;
    ASSERT_TRUE(parse_arrival_model(arrival_model_name(m), parsed));
    EXPECT_EQ(parsed, m);
  }
  ArrivalModel parsed;
  EXPECT_FALSE(parse_arrival_model("weibull", parsed));
}

// ---------------------------------------------------------------------------
// ServiceLedger
// ---------------------------------------------------------------------------

TEST(ServiceLedger, TotalsAndMergedHistogramAggregateSlabs) {
  ServiceLedger ledger(4);
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i <= p; ++i) {
      ledger.at(p).record_arrival();
      ledger.at(p).record_completion(1e-3 * (p + 1));
    }
  }
  const ServiceTotals t = ledger.totals();
  EXPECT_EQ(t.arrivals, 10u);
  EXPECT_EQ(t.completions, 10u);
  EXPECT_EQ(ledger.merged_histogram().count(), 10u);
}

}  // namespace
}  // namespace prema::service

// ---------------------------------------------------------------------------
// End-to-end service runs (sim backend)
// ---------------------------------------------------------------------------

namespace prema::bench {
namespace {

ServiceScenario small_scenario(const std::string& policy) {
  ServiceScenario sc;
  sc.backend = "sim";
  sc.nprocs = 8;
  sc.duration_s = 0.15;
  sc.epoch_s = 25e-3;
  sc.policy = policy;
  sc.arrivals.rate_per_proc = 30.0;
  return sc;
}

void expect_sane(const ServiceReport& r) {
  // The delivery audit: every injected request completed exactly once and
  // every shard is resident at exactly one processor.
  EXPECT_TRUE(r.audit_ok) << r.policy << "/" << r.fault_profile << ": arrivals="
                          << r.arrivals << " completions=" << r.completions;
  EXPECT_GT(r.arrivals, 0u);
  EXPECT_GE(r.makespan, r.duration_s);  // window plus drain tail
  EXPECT_GT(r.p50_ms, 0.0);
  EXPECT_GE(r.p99_ms, r.p50_ms);
  EXPECT_GE(r.p999_ms, r.p99_ms);
  EXPECT_EQ(r.histogram.count(), r.completions);
}

TEST(ServiceRun, WorkStealingAuditBalances) {
  ServiceScenario sc = small_scenario("work_stealing");
  sc.trace_out = "service_epochs_sim.json";
  const ServiceReport r = run_service_scenario(sc);
  expect_sane(r);
  // Every rank's epoch timer fired: each track carries a service-epoch event.
  ASSERT_EQ(r.trace_file, sc.trace_out);
  const auto epochs = testutil::events_per_track(r.trace_file, "service-epoch", sc.nprocs);
  for (int p = 0; p < sc.nprocs; ++p) EXPECT_GT(epochs[p], 0) << "rank " << p;
  // Sim backend, no faults: nominal request compute seconds reconcile with
  // the machine's accounted computation almost exactly.
  EXPECT_LT(std::abs(r.ledger_delta_pct), 1.0);
}

TEST(ServiceRun, DiffusionAuditBalances) {
  const ServiceReport r = run_service_scenario(small_scenario("diffusion"));
  expect_sane(r);
}

TEST(ServiceRun, NullPolicyStillConserves) {
  // No balancing at all: latencies may be worse but conservation holds.
  const ServiceReport r = run_service_scenario(small_scenario("null"));
  expect_sane(r);
  EXPECT_EQ(r.migrations, 0u);
}

TEST(ServiceRun, BurstyAndDiurnalModelsConserve) {
  for (const service::ArrivalModel m :
       {service::ArrivalModel::kBursty, service::ArrivalModel::kDiurnal}) {
    ServiceScenario sc = small_scenario("work_stealing");
    sc.arrivals.model = m;
    const ServiceReport r = run_service_scenario(sc);
    expect_sane(r);
    EXPECT_EQ(r.model, service::arrival_model_name(m));
  }
}

TEST(ServiceRun, MidPauseElasticityUnderStealAndDiffusion) {
  // The elasticity scenario: node 1 runs 2x slow and pauses outright
  // mid-window under the canned "mid-pause" profile. The balancer must route
  // around the paused node and the audit must still balance exactly — under
  // both the pull (steal) and push (diffusion) policies.
  for (const char* policy : {"work_stealing", "diffusion"}) {
    ServiceScenario sc = small_scenario(policy);
    sc.fault_profile = "mid-pause";
    sc.duration_s = 0.3;  // keep the 0.15-0.25 s pause window mid-run
    const ServiceReport r = run_service_scenario(sc);
    expect_sane(r);
    EXPECT_EQ(r.arrivals, r.completions) << policy;
  }
}

TEST(ServiceRun, MidWindowSwitchToSfcAbsorbsSkewedTopologyTags) {
  // Swap every rank from work_stealing to sfc mid-window. Ranks apply the
  // schedule on their own clocks, so an early-switching rank's first sfc
  // histogram report (a topology-range tag) can reach rank 0 while its
  // scalar policy is still active; the Balancer must absorb it rather than
  // let work_stealing's fail-fast abort fire. Long enough window that sfc
  // reports and gossip both flow on each side of the swap.
  ServiceScenario sc = small_scenario("work_stealing");
  sc.duration_s = 0.3;
  sc.policy_switches = {{0.15, "sfc"}};
  const ServiceReport r = run_service_scenario(sc);
  expect_sane(r);
  EXPECT_EQ(r.arrivals, r.completions);
  EXPECT_EQ(r.policy, "work_stealing->sfc");
}

TEST(ServiceRunDeathTest, PolicySwitchAtTheDeadlineAborts) {
  // A switch at or past the end of the injection window would never see an
  // arrival under the new policy; run_service refuses it up front.
  ServiceScenario sc = small_scenario("work_stealing");
  sc.policy_switches = {{sc.duration_s, "sfc"}};
  EXPECT_DEATH((void)run_service_scenario(sc), "policy switch time");
}

TEST(ServiceRun, ReportsAreDeterministic) {
  // Two identically seeded service runs agree on every scalar the sweep
  // reports (the byte-level trace comparison lives in test_determinism).
  const ServiceReport a = run_service_scenario(small_scenario("work_stealing"));
  const ServiceReport b = run_service_scenario(small_scenario("work_stealing"));
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_TRUE(a.histogram == b.histogram);
  EXPECT_DOUBLE_EQ(a.p999_ms, b.p999_ms);
}

}  // namespace
}  // namespace prema::bench
