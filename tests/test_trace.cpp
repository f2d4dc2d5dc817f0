#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dmcs/sim_machine.hpp"
#include "prema/runtime.hpp"
#include "support/time_ledger.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace prema {
namespace {

using util::ByteReader;
using util::ByteWriter;
using util::TimeCategory;

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------

TEST(TraceBuffer, OverflowKeepsNewestEvents) {
  trace::TraceBuffer buf(4);
  for (int i = 0; i < 10; ++i) {
    trace::TraceEvent e;
    e.kind = trace::EventKind::kPollWakeup;
    e.t0 = static_cast<double>(i);
    buf.push(e);
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.dropped(), 6u);
  const auto events = buf.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first iteration over the survivors: 6, 7, 8, 9.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].t0, 6.0 + static_cast<double>(i));
  }
}

TEST(TraceBuffer, NoDropsBelowCapacity) {
  trace::TraceBuffer buf(8);
  trace::TraceEvent e;
  e.kind = trace::EventKind::kTermWave;
  for (int i = 0; i < 8; ++i) buf.push(e);
  EXPECT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Golden per-kind export: one event of every EventKind (and every FaultType)
// pins each kind's name, category, phase, args and counter bumps.
// ---------------------------------------------------------------------------

TEST(TraceGolden, EveryKindExportsAndCountsExactly) {
  trace::TraceConfig cfg;
  cfg.enabled = true;
  cfg.buffer_capacity = 64;
  trace::TraceRecorder rec(2, cfg);
  trace::TraceSink& s = rec.sink(0);

  using trace::EventKind;
  const auto fault = [&](double t, trace::FaultType type, std::uint64_t bytes) {
    s.record(EventKind::kFault, t, 1, bytes, static_cast<double>(type));
  };
  s.work_begin(1.0);
  s.record(EventKind::kPollWakeup, 1.25);  // recorded mid-span, exported after it
  s.work_annotate(rec.intern("unit"), 2.5);
  s.work_end(1.5);
  s.span(EventKind::kPartition, 2.0, 0.25);
  s.record(EventKind::kMessageSend, 3.0, 1, 100, 0.0, 0, false);
  s.record(EventKind::kMessageRecv, 3.5, 1, 40, 0.0, 0, true);
  s.record(EventKind::kMigrationOut, 4.0, 1, 512);
  s.record(EventKind::kMigrationIn, 4.5, 1, 256);
  s.record(EventKind::kPolicyDecision, 5.0, 1, 0, 1.5, rec.intern("work_stealing"));
  s.record(EventKind::kPolicyWire, 5.5, 1, 7);
  s.record(EventKind::kTermWave, 6.5, kNoProc, 3);
  fault(7.0, trace::FaultType::kDrop, 64);
  fault(7.1, trace::FaultType::kDuplicate, 64);
  fault(7.2, trace::FaultType::kDelay, 64);
  fault(7.3, trace::FaultType::kReorder, 64);
  fault(7.4, trace::FaultType::kCorrupt, 64);
  fault(7.5, trace::FaultType::kDupDropped, 0);
  fault(7.6, trace::FaultType::kCorruptDropped, 0);
  s.record(EventKind::kRetransmit, 8.0, 1, 42);
  s.record(EventKind::kAck, 8.5, 1, 41);
  s.record(EventKind::kServiceArrival, 9.0, kNoProc, 12345, 0.75);
  s.service_complete(9.5, 12345, 0.125);
  s.record(EventKind::kServiceEpoch, 10.0, kNoProc, 0, 3.25);
  s.record(EventKind::kPolicySfcCut, 10.5, kNoProc, 4, 1.125);
  s.sample_migrations_round(2.0);
  rec.sink(1).record(EventKind::kMessageSend, 0.5, 0, 8, 0.0, 0, true);

  std::ostringstream json;
  trace::write_chrome_trace(json, rec);
  EXPECT_EQ(json.str(), R"({"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"prema"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"proc 0"}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"proc 1"}},
{"name":"unit","cat":"work","ph":"X","pid":0,"tid":0,"ts":1000000.000,"dur":500000.000,"args":{"weight":2.5}},
{"name":"poll-wakeup","cat":"polling","ph":"i","pid":0,"tid":0,"ts":1250000.000,"s":"t"},
{"name":"partition","cat":"partition","ph":"X","pid":0,"tid":0,"ts":2000000.000,"dur":250000.000},
{"name":"send","cat":"msg","ph":"i","pid":0,"tid":0,"ts":3000000.000,"s":"t","args":{"dst":1,"bytes":100,"system":false}},
{"name":"recv","cat":"msg","ph":"i","pid":0,"tid":0,"ts":3500000.000,"s":"t","args":{"src":1,"bytes":40,"system":true}},
{"name":"migrate-out","cat":"migration","ph":"i","pid":0,"tid":0,"ts":4000000.000,"s":"t","args":{"dst":1,"bytes":512}},
{"name":"migrate-in","cat":"migration","ph":"i","pid":0,"tid":0,"ts":4500000.000,"s":"t","args":{"src":1,"bytes":256}},
{"name":"work_stealing","cat":"policy","ph":"i","pid":0,"tid":0,"ts":5000000.000,"s":"t","args":{"dst":1,"weight":1.5}},
{"name":"policy-msg","cat":"policy","ph":"i","pid":0,"tid":0,"ts":5500000.000,"s":"t","args":{"src":1,"tag":7}},
{"name":"term-wave","cat":"termination","ph":"i","pid":0,"tid":0,"ts":6500000.000,"s":"t","args":{"wave":3}},
{"name":"fault","cat":"fault","ph":"i","pid":0,"tid":0,"ts":7000000.000,"s":"t","args":{"peer":1,"type":"drop","bytes":64}},
{"name":"fault","cat":"fault","ph":"i","pid":0,"tid":0,"ts":7100000.000,"s":"t","args":{"peer":1,"type":"dup","bytes":64}},
{"name":"fault","cat":"fault","ph":"i","pid":0,"tid":0,"ts":7200000.000,"s":"t","args":{"peer":1,"type":"delay","bytes":64}},
{"name":"fault","cat":"fault","ph":"i","pid":0,"tid":0,"ts":7300000.000,"s":"t","args":{"peer":1,"type":"reorder","bytes":64}},
{"name":"fault","cat":"fault","ph":"i","pid":0,"tid":0,"ts":7400000.000,"s":"t","args":{"peer":1,"type":"corrupt","bytes":64}},
{"name":"fault","cat":"fault","ph":"i","pid":0,"tid":0,"ts":7500000.000,"s":"t","args":{"peer":1,"type":"dup-dropped","bytes":0}},
{"name":"fault","cat":"fault","ph":"i","pid":0,"tid":0,"ts":7600000.000,"s":"t","args":{"peer":1,"type":"corrupt-dropped","bytes":0}},
{"name":"retransmit","cat":"transport","ph":"i","pid":0,"tid":0,"ts":8000000.000,"s":"t","args":{"dst":1,"seq":42}},
{"name":"ack","cat":"transport","ph":"i","pid":0,"tid":0,"ts":8500000.000,"s":"t","args":{"dst":1,"ack":41}},
{"name":"service-arrival","cat":"service","ph":"i","pid":0,"tid":0,"ts":9000000.000,"s":"t","args":{"client":12345,"mflop":0.75}},
{"name":"service-complete","cat":"service","ph":"i","pid":0,"tid":0,"ts":9500000.000,"s":"t","args":{"client":12345,"sojourn_s":0.125}},
{"name":"service-epoch","cat":"service","ph":"i","pid":0,"tid":0,"ts":10000000.000,"s":"t","args":{"load":3.25}},
{"name":"policy.sfc_cut","cat":"policy","ph":"i","pid":0,"tid":0,"ts":10500000.000,"s":"t","args":{"segments":4,"imbalance":1.125}},
{"name":"send","cat":"msg","ph":"i","pid":0,"tid":1,"ts":500000.000,"s":"t","args":{"dst":0,"bytes":8,"system":true}}
]}
)");

  const trace::ProcCounters c = s.counters();
  EXPECT_EQ(c.work_units, 1u);
  EXPECT_EQ(c.partitions, 1u);
  EXPECT_EQ(c.msgs_sent, 1u);
  EXPECT_EQ(c.msgs_received, 1u);
  EXPECT_EQ(c.bytes_sent, 100u);
  EXPECT_EQ(c.bytes_received, 40u);
  EXPECT_EQ(c.migrations_out, 1u);
  EXPECT_EQ(c.migrations_in, 1u);
  EXPECT_EQ(c.policy_decisions, 1u);
  EXPECT_EQ(c.policy_wire_msgs, 1u);
  EXPECT_EQ(c.poll_wakeups, 1u);
  EXPECT_EQ(c.term_waves, 1u);
  EXPECT_EQ(c.faults_injected, 5u);
  EXPECT_EQ(c.retransmits, 1u);
  EXPECT_EQ(c.acks_sent, 1u);
  EXPECT_EQ(c.dup_drops, 1u);
  EXPECT_EQ(c.corrupt_drops, 1u);
  EXPECT_EQ(c.service_arrivals, 1u);
  EXPECT_EQ(c.service_completions, 1u);
  EXPECT_EQ(c.service_epochs, 1u);
  EXPECT_EQ(c.sfc_cuts, 1u);
  EXPECT_DOUBLE_EQ(c.work_seconds, 0.5);
  EXPECT_DOUBLE_EQ(c.partition_seconds, 0.25);
  EXPECT_EQ(c.msg_size.count(), 1u);
  EXPECT_DOUBLE_EQ(c.msg_size.sum(), 100.0);
  EXPECT_EQ(c.migrations_per_round.count(), 1u);
  EXPECT_DOUBLE_EQ(c.migrations_per_round.sum(), 2.0);

  const trace::ProcCounters c1 = rec.sink(1).counters();
  EXPECT_EQ(c1.msgs_sent, 1u);
  EXPECT_EQ(c1.bytes_sent, 8u);
  EXPECT_EQ(c1.msgs_received + c1.work_units + c1.faults_injected, 0u);

  std::ostringstream summary;
  trace::write_summary(summary, rec);
  EXPECT_EQ(summary.str(),
            R"(trace summary: 2 processors, 24 events retained, 0 dropped to ring overflow
  proc  work-units   work-s     msgs-out   msgs-in    bytes-out  migr-out  migr-in  decisions  wakeups
     0           1       0.50          1          1         100         1        1          1        1
     1           0       0.00          1          0           8         0        0          0        0
  work-unit spans (retained): n=1 mean 0.5000 s  stddev 0.0000  min 0.5000  max 0.5000
  message sizes: n=2 mean 54 B  p50~16  p99~16  max 100
  migrations per balancing round: n=1 mean 2.00  max 2
  reliability: 5 faults injected, 1 retransmits, 1 acks, 1 dup drops, 1 corrupt drops
)");
}

// ---------------------------------------------------------------------------
// A small traced PREMA application on the emulated machine
// ---------------------------------------------------------------------------

class Blob : public mol::MobileObject {
 public:
  explicit Blob(double mflop = 10.0) : mflop_(mflop) {}
  [[nodiscard]] std::uint32_t type_id() const override { return 1; }
  void serialize(ByteWriter& w) const override { w.put<double>(mflop_); }
  static std::unique_ptr<mol::MobileObject> make(ByteReader& r) {
    return std::make_unique<Blob>(r.get<double>());
  }
  double mflop_;
};

struct TracedRun {
  double makespan = 0.0;
  std::string json;
  std::string summary;
  std::vector<util::TimeLedger> ledgers;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
};

/// Run a small unbalanced workload (all objects start on rank 0) with the
/// given settings and return the exported artifacts.
TracedRun traced_run(bool enable_trace, std::uint64_t seed,
                     std::size_t buffer_capacity = 1 << 14) {
  sim::MachineConfig mcfg;
  mcfg.nprocs = 4;
  mcfg.seed = seed;
  dmcs::SimMachine machine(mcfg);  // explicit polling: deterministic ledgers

  RuntimeConfig rcfg;
  rcfg.policy = "work_stealing";
  rcfg.trace.enabled = enable_trace;
  rcfg.trace.buffer_capacity = buffer_capacity;
  Runtime rt(machine, rcfg);
  rt.object_types().add(1, Blob::make);

  const auto work = rt.register_object_handler(
      "test.work", [](Context& ctx, mol::MobileObject& obj, ByteReader&,
                      const mol::Delivery&) {
        ctx.compute(static_cast<Blob&>(obj).mflop_);
      });
  rt.set_main([work](Context& ctx) {
    if (ctx.rank() != 0) return;
    for (int i = 0; i < 64; ++i) {
      auto ptr = ctx.add_object(std::make_unique<Blob>(10.0));
      ctx.message(ptr, work);
    }
  });

  TracedRun out;
  out.makespan = rt.run();
  for (ProcId p = 0; p < machine.nprocs(); ++p) {
    out.ledgers.push_back(machine.ledger(p));
  }
  if (const auto* rec = machine.tracer()) {
    std::ostringstream json;
    trace::write_chrome_trace(json, *rec);
    out.json = json.str();
    std::ostringstream summary;
    trace::write_summary(summary, *rec, out.ledgers);
    out.summary = summary.str();
    out.events = rec->total_events();
    out.dropped = rec->total_dropped();
  }
  return out;
}

TEST(TraceRun, ChromeExportIsValidAndCoversEventKinds) {
  const TracedRun run = traced_run(/*enable_trace=*/true, /*seed=*/7);
  ASSERT_GT(run.events, 0u);

  const auto check = trace::check_chrome_trace(run.json);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.tracks, 4u);
  EXPECT_GE(check.events, 64u);  // at least one span per executed unit

  // All the layers show up: work units (annotated with the handler name),
  // messages, migrations out of the overloaded rank, policy decisions, and
  // the termination detector's waves.
  EXPECT_NE(run.json.find("\"name\":\"test.work\""), std::string::npos);
  EXPECT_NE(run.json.find("\"name\":\"send\""), std::string::npos);
  EXPECT_NE(run.json.find("\"name\":\"recv\""), std::string::npos);
  EXPECT_NE(run.json.find("\"name\":\"migrate-out\""), std::string::npos);
  EXPECT_NE(run.json.find("\"name\":\"migrate-in\""), std::string::npos);
  EXPECT_NE(run.json.find("\"name\":\"work_stealing\""), std::string::npos);
  EXPECT_NE(run.json.find("\"name\":\"term-wave\""), std::string::npos);
}

TEST(TraceRun, SimBackendTracesAreDeterministic) {
  const TracedRun a = traced_run(/*enable_trace=*/true, /*seed=*/2003);
  const TracedRun b = traced_run(/*enable_trace=*/true, /*seed=*/2003);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.json, b.json);  // byte-identical export for identical runs
  EXPECT_EQ(a.summary, b.summary);
}

TEST(TraceRun, TracingDoesNotPerturbTheEmulation) {
  const TracedRun off = traced_run(/*enable_trace=*/false, /*seed=*/2003);
  const TracedRun on = traced_run(/*enable_trace=*/true, /*seed=*/2003);
  EXPECT_EQ(off.json, "");
  // Recording never advances the virtual clocks, so the emulated run is
  // bit-identical with tracing on or off.
  EXPECT_DOUBLE_EQ(on.makespan, off.makespan);
  ASSERT_EQ(on.ledgers.size(), off.ledgers.size());
  for (std::size_t p = 0; p < on.ledgers.size(); ++p) {
    for (std::size_t c = 0; c < util::kTimeCategoryCount; ++c) {
      const auto cat = static_cast<TimeCategory>(c);
      EXPECT_DOUBLE_EQ(on.ledgers[p].get(cat), off.ledgers[p].get(cat));
    }
  }
}

TEST(TraceRun, SummaryReconcilesWithTimeLedger) {
  const TracedRun run = traced_run(/*enable_trace=*/true, /*seed=*/7);
  ASSERT_EQ(run.dropped, 0u);

  // With explicit polling a work span is exactly the unit's computation, so
  // the exact span-seconds counter must match the ledgers' Computation total.
  double ledger_comp = 0.0;
  for (const auto& l : run.ledgers) {
    ledger_comp += l.get(TimeCategory::kComputation);
  }
  EXPECT_GT(ledger_comp, 0.0);
  EXPECT_NE(run.summary.find("ledger reconciliation"), std::string::npos);

  // The reported delta between traced span time and the ledger must be tiny
  // (the summary prints it; here we recompute it from the counters' side by
  // checking the summary quotes a sub-0.01% delta).
  const auto pos = run.summary.find("(%");
  (void)pos;
  std::istringstream is(run.summary);
  std::string line;
  bool found = false;
  while (std::getline(is, line)) {
    if (line.find("ledger reconciliation") == std::string::npos) continue;
    found = true;
    const auto open = line.find('(');
    ASSERT_NE(open, std::string::npos) << line;
    const double delta_pct = std::abs(std::strtod(line.c_str() + open + 1, nullptr));
    EXPECT_LT(delta_pct, 0.01) << line;
  }
  EXPECT_TRUE(found) << run.summary;
}

TEST(TraceRun, RingOverflowIsCountedAndExportStaysValid) {
  // A tiny ring forces drops; the export must stay structurally valid and
  // the recorder must own up to the loss.
  const TracedRun run = traced_run(/*enable_trace=*/true, /*seed=*/7,
                                   /*buffer_capacity=*/32);
  EXPECT_GT(run.dropped, 0u);
  const auto check = trace::check_chrome_trace(run.json);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_NE(run.summary.find("dropped to ring overflow"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Checker negative cases
// ---------------------------------------------------------------------------

TEST(ChromeTraceCheck, RejectsMalformedDocuments) {
  EXPECT_FALSE(trace::check_chrome_trace("not json").ok);
  EXPECT_FALSE(trace::check_chrome_trace("{}").ok);
  EXPECT_FALSE(trace::check_chrome_trace("{\"traceEvents\":[{}]}").ok);
  // Non-monotonic timestamps within one track.
  const char* bad =
      "{\"traceEvents\":["
      "{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"name\":\"a\",\"ts\":2.0,\"s\":\"t\"},"
      "{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"name\":\"b\",\"ts\":1.0,\"s\":\"t\"}]}";
  const auto check = trace::check_chrome_trace(bad);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("monotonic"), std::string::npos);
}

TEST(ChromeTraceCheck, AcceptsMinimalValidTrace) {
  const char* good =
      "{\"traceEvents\":["
      "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"w\",\"ts\":1.0,\"dur\":2.0},"
      "{\"ph\":\"i\",\"pid\":0,\"tid\":1,\"name\":\"i\",\"ts\":0.5,\"s\":\"t\"}]}";
  const auto check = trace::check_chrome_trace(good);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.events, 2u);
  EXPECT_EQ(check.tracks, 2u);
}

}  // namespace
}  // namespace prema
