#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ilb/policies/diffusion.hpp"
#include "ilb/policies/gradient.hpp"
#include "ilb/policies/master.hpp"
#include "ilb/policies/multilist.hpp"
#include "ilb/policies/sfc.hpp"
#include "ilb/policies/work_stealing.hpp"
#include "ilb/policy.hpp"
#include "ilb/scheduler.hpp"

namespace prema::ilb {
namespace {

mol::Delivery make_delivery(mol::MobilePtr target, double weight,
                            std::uint64_t delivery_no, std::int64_t tagval = 0) {
  mol::Delivery d;
  d.target = target;
  d.handler = 1;
  d.origin = 0;
  d.weight = weight;
  d.delivery_no = delivery_no;
  util::ByteWriter w;
  w.put<std::int64_t>(tagval);
  d.payload = w.take();
  return d;
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

TEST(Scheduler, FifoWithinObject) {
  Scheduler s;
  const mol::MobilePtr a{0, 1};
  s.enqueue(make_delivery(a, 1.0, 0, 10));
  s.enqueue(make_delivery(a, 1.0, 1, 11));
  s.enqueue(make_delivery(a, 1.0, 2, 12));
  EXPECT_EQ(s.queued_units(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    auto d = s.pick();
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->delivery_no, i);
    s.complete();
  }
  EXPECT_FALSE(s.pick().has_value());
}

TEST(Scheduler, RoundRobinAcrossObjects) {
  Scheduler s;
  const mol::MobilePtr a{0, 1}, b{0, 2};
  s.enqueue(make_delivery(a, 1.0, 0));
  s.enqueue(make_delivery(a, 1.0, 1));
  s.enqueue(make_delivery(b, 1.0, 0));
  s.enqueue(make_delivery(b, 1.0, 1));
  std::vector<mol::MobilePtr> order;
  while (auto d = s.pick()) {
    order.push_back(d->target);
    s.complete();
  }
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], a);
  EXPECT_EQ(order[1], b);
  EXPECT_EQ(order[2], a);
  EXPECT_EQ(order[3], b);
}

TEST(Scheduler, LoadTracksWeightsAndCounts) {
  Scheduler s;
  const mol::MobilePtr a{0, 1};
  s.enqueue(make_delivery(a, 2.5, 0));
  s.enqueue(make_delivery(a, 0.5, 1));
  EXPECT_DOUBLE_EQ(s.queued_weight(), 3.0);
  EXPECT_EQ(s.queued_units(), 2u);
  (void)s.pick();
  EXPECT_DOUBLE_EQ(s.queued_weight(), 0.5);
  s.complete();
}

TEST(Scheduler, TakeQueuedRemovesObject) {
  Scheduler s;
  const mol::MobilePtr a{0, 1}, b{0, 2};
  s.enqueue(make_delivery(a, 1.0, 0));
  s.enqueue(make_delivery(a, 1.0, 1));
  s.enqueue(make_delivery(b, 1.0, 0));
  auto taken = s.take_queued(a);
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(s.queued_units(), 1u);
  auto d = s.pick();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->target, b);
  s.complete();
  EXPECT_TRUE(s.take_queued(a).empty());
}

TEST(Scheduler, MigratableLoadsExcludeExecutingObject) {
  Scheduler s;
  const mol::MobilePtr a{0, 1}, b{0, 2};
  s.enqueue(make_delivery(a, 1.0, 0));
  s.enqueue(make_delivery(a, 5.0, 1));
  s.enqueue(make_delivery(b, 2.0, 0));
  auto d = s.pick();  // picks a unit of `a`; `a` still has one queued
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->target, a);
  auto loads = s.migratable_loads();
  ASSERT_EQ(loads.size(), 1u);
  EXPECT_EQ(loads[0].ptr, b);
  s.complete();
  loads = s.migratable_loads();
  ASSERT_EQ(loads.size(), 2u);
  // Sorted heaviest first.
  EXPECT_EQ(loads[0].ptr, a);
  EXPECT_DOUBLE_EQ(loads[0].weight, 5.0);
}

TEST(SchedulerDeathTest, GuardsMisuse) {
  Scheduler s;
  EXPECT_DEATH(s.complete(), "without a picked unit");
  const mol::MobilePtr a{0, 1};
  s.enqueue(make_delivery(a, 1.0, 0));
  s.enqueue(make_delivery(a, 1.0, 1));
  (void)s.pick();
  EXPECT_DEATH((void)s.pick(), "while a unit is executing");
  EXPECT_DEATH((void)s.take_queued(a), "executing object");
}

TEST(SchedulerDeathTest, OutOfOrderDeliveryAborts) {
  Scheduler s;
  const mol::MobilePtr a{0, 1};
  s.enqueue(make_delivery(a, 1.0, 5));
  EXPECT_DEATH(s.enqueue(make_delivery(a, 1.0, 4)), "out-of-order");
}

// ---------------------------------------------------------------------------
// Policies against a scripted fake context
// ---------------------------------------------------------------------------

struct SentMsg {
  ProcId dst;
  PolicyTag tag;
  std::vector<std::uint8_t> body;
};

struct Migration {
  mol::MobilePtr ptr;
  ProcId dst;
};

class FakeContext final : public PolicyContext {
 public:
  FakeContext(ProcId rank, int nprocs) : rank_(rank), nprocs_(nprocs), rng_(7) {}

  [[nodiscard]] ProcId rank() const override { return rank_; }
  [[nodiscard]] int nprocs() const override { return nprocs_; }
  [[nodiscard]] double now() const override { return now_; }
  [[nodiscard]] util::Rng& rng() override { return rng_; }
  [[nodiscard]] double local_load() const override { return load_; }
  [[nodiscard]] double low_watermark() const override { return 2.0; }
  [[nodiscard]] double donate_threshold() const override { return 4.0; }
  [[nodiscard]] std::vector<Scheduler::ObjectLoad> migratable() const override {
    return objects_;
  }
  void migrate_object(const mol::MobilePtr& ptr, ProcId dst) override {
    migrations_.push_back({ptr, dst});
    for (auto it = objects_.begin(); it != objects_.end(); ++it) {
      if (it->ptr == ptr) {
        load_ -= it->weight;
        objects_.erase(it);
        break;
      }
    }
  }
  void send_policy(ProcId dst, PolicyTag tag, std::vector<std::uint8_t> body) override {
    sent_.push_back({dst, tag, std::move(body)});
  }
  void charge_seconds(double) override {}
  void request_poll_after(double seconds) override {
    poll_requests_.push_back(seconds);
  }

  // --- scripted topology view (empty/off by default, like a scalar run) ---
  [[nodiscard]] bool topology_enabled() const override { return topology_; }
  [[nodiscard]] std::optional<mol::Coords> object_coords(
      const mol::MobilePtr& ptr) const override {
    const auto it = coords_.find(ptr);
    if (it == coords_.end()) return std::nullopt;
    return it->second;
  }
  void trace_sfc_cut(std::size_t segments, double imbalance) override {
    sfc_cuts_.push_back({segments, imbalance});
  }

  void set_load(double load) { load_ = load; }
  void add_object(mol::MobilePtr ptr, double weight) {
    objects_.push_back({ptr, 1, weight});
    load_ += weight;
  }

  ProcId rank_;
  int nprocs_;
  util::Rng rng_;
  double now_ = 0.0;
  double load_ = 0.0;
  std::vector<Scheduler::ObjectLoad> objects_;
  std::vector<SentMsg> sent_;
  std::vector<Migration> migrations_;
  std::vector<double> poll_requests_;
  bool topology_ = false;
  std::map<mol::MobilePtr, mol::Coords> coords_;
  std::vector<std::pair<std::size_t, double>> sfc_cuts_;
};

util::ByteReader reader_of(const SentMsg& m) { return util::ByteReader(m.body); }

TEST(WorkStealing, RequestsWhenBelowWatermark) {
  FakeContext ctx(2, 8);
  WorkStealingPolicy p;
  p.init(ctx);
  ctx.set_load(1.0);  // below watermark 2.0
  p.on_poll(ctx);
  ASSERT_EQ(ctx.sent_.size(), 1u);
  EXPECT_EQ(ctx.sent_[0].dst, 3);  // rank ^ 1
  EXPECT_EQ(ctx.sent_[0].tag, 1);  // request
  // No duplicate request while one is outstanding.
  p.on_poll(ctx);
  EXPECT_EQ(ctx.sent_.size(), 1u);
}

TEST(WorkStealing, StaysQuietWhenLoaded) {
  FakeContext ctx(0, 4);
  WorkStealingPolicy p;
  p.init(ctx);
  ctx.set_load(10.0);
  p.on_poll(ctx);
  EXPECT_TRUE(ctx.sent_.empty());
}

TEST(WorkStealing, GrantsMigrationsOnRequest) {
  FakeContext ctx(1, 4);
  WorkStealingPolicy p;
  p.init(ctx);
  for (std::uint32_t i = 0; i < 10; ++i) ctx.add_object({1, i}, 1.0);
  // Peer rank 3 asks with load 0.
  util::ByteWriter w;
  w.put<double>(0.0);
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 3, 1, r);
  // Half the gap (10) is 5 objects, all to rank 3, then a grant message.
  EXPECT_EQ(ctx.migrations_.size(), 5u);
  for (const auto& m : ctx.migrations_) EXPECT_EQ(m.dst, 3);
  ASSERT_EQ(ctx.sent_.size(), 1u);
  EXPECT_EQ(ctx.sent_[0].tag, 3);  // grant
  auto rd = reader_of(ctx.sent_[0]);
  EXPECT_EQ(rd.get<std::uint32_t>(), 5u);
}

TEST(WorkStealing, DeniesWhenPoor) {
  FakeContext ctx(1, 4);
  WorkStealingPolicy p;
  p.init(ctx);
  ctx.add_object({1, 0}, 1.0);  // load 1, below donate threshold
  util::ByteWriter w;
  w.put<double>(0.0);
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 3, 1, r);
  EXPECT_TRUE(ctx.migrations_.empty());
  ASSERT_EQ(ctx.sent_.size(), 1u);
  EXPECT_EQ(ctx.sent_[0].tag, 2);  // deny
}

TEST(WorkStealing, RotatesPartnerOnDenyAndGoesPassive) {
  constexpr auto kDenials =
      static_cast<std::size_t>(WorkStealingPolicy::kPassiveAfterDenials);
  FakeContext ctx(0, 4);
  WorkStealingPolicy p;
  p.init(ctx);
  ctx.set_load(0.0);
  const std::vector<std::uint8_t> empty;
  // The partner asked last answers with a denial.
  const auto deny_last = [&] {
    util::ByteReader r(empty);
    p.on_message(ctx, ctx.sent_.back().dst, 2, r);
  };
  p.on_poll(ctx);  // request #1 to partner 1
  ASSERT_EQ(ctx.sent_.size(), 1u);
  // Every denial short of the limit rotates to a new partner and retries
  // immediately.
  for (std::size_t i = 1; i < kDenials; ++i) {
    deny_last();
    ASSERT_EQ(ctx.sent_.size(), i + 1);
    EXPECT_NE(ctx.sent_[i].dst, ctx.sent_[i - 1].dst);
  }
  deny_last();  // the last denial -> dormant
  EXPECT_EQ(ctx.sent_.size(), kDenials);  // no further request
  // Dormancy armed a delayed retry wakeup.
  ASSERT_EQ(ctx.poll_requests_.size(), 1u);
  EXPECT_GT(ctx.poll_requests_[0], 0.0);
  p.on_poll(ctx);
  EXPECT_EQ(ctx.sent_.size(), kDenials);  // still dormant (retry time not reached)
  p.on_work_arrived(ctx);
  p.on_poll(ctx);
  EXPECT_EQ(ctx.sent_.size(), kDenials + 1);  // begging again
  EXPECT_EQ(p.stats().went_passive, 1u);
  // A dormant wakeup after the backoff elapses also resumes begging.
  for (std::size_t i = 0; i < kDenials; ++i) deny_last();  // dormant again
  EXPECT_EQ(ctx.sent_.size(), 2 * kDenials);
  ctx.now_ = 1e6;  // well past any backoff
  p.on_poll(ctx);
  EXPECT_EQ(ctx.sent_.size(), 2 * kDenials + 1);
}

TEST(WorkStealing, GrantKeepsCushionForDonor) {
  FakeContext ctx(1, 4);
  WorkStealingPolicy p;
  p.init(ctx);
  for (std::uint32_t i = 0; i < 5; ++i) ctx.add_object({1, i}, 1.0);
  util::ByteWriter w;
  w.put<double>(4.0);  // requester nearly as loaded as we are
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 2, 1, r);
  // Gap is 1, half-gap 0.5: exactly one object moves; donor keeps >= watermark.
  EXPECT_EQ(ctx.migrations_.size(), 1u);
}

TEST(Diffusion, NeighborsHypercubeAndRing) {
  {
    FakeContext ctx(5, 8);
    DiffusionPolicy p;
    p.init(ctx);
    EXPECT_EQ(p.neighbors(), (std::vector<ProcId>{4, 7, 1}));
  }
  {
    FakeContext ctx(0, 6);
    DiffusionPolicy p;
    p.init(ctx);
    EXPECT_EQ(p.neighbors(), (std::vector<ProcId>{1, 5}));
  }
}

TEST(Diffusion, AnnouncesWithHysteresis) {
  FakeContext ctx(0, 4);
  DiffusionPolicy p;
  p.init(ctx);
  ctx.set_load(10.0);
  p.on_poll(ctx);
  const auto after_first = ctx.sent_.size();
  EXPECT_GT(after_first, 0u);
  p.on_poll(ctx);  // unchanged load: silent
  EXPECT_EQ(ctx.sent_.size(), after_first);
  ctx.set_load(20.0);  // big change: re-announce
  p.on_poll(ctx);
  EXPECT_GT(ctx.sent_.size(), after_first);
}

TEST(Diffusion, PushesTowardLighterNeighbor) {
  FakeContext ctx(0, 4);
  DiffusionPolicy p;
  p.init(ctx);
  for (std::uint32_t i = 0; i < 12; ++i) ctx.add_object({0, i}, 1.0);
  util::ByteWriter w;
  w.put<double>(0.0);
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 1, 1, r);  // neighbor 1 announces load 0
  // alpha * gap / 2 = 0.5 * 12 / 2 = 3 units move.
  EXPECT_EQ(ctx.migrations_.size(), 3u);
  for (const auto& m : ctx.migrations_) EXPECT_EQ(m.dst, 1);
  // A second identical announcement must not re-push blindly: the optimistic
  // accounting raised our view of the neighbor.
  const auto before = ctx.migrations_.size();
  p.on_poll(ctx);
  EXPECT_LE(ctx.migrations_.size() - before, 3u);
}

TEST(Gradient, ProximityReflectsLocalState) {
  FakeContext ctx(1, 4);
  GradientPolicy p;
  p.init(ctx);
  ctx.set_load(0.0);  // underloaded
  p.on_poll(ctx);
  EXPECT_EQ(p.proximity(), 0u);
  // Loaded with unknown neighbours: proximity saturates.
  ctx.set_load(50.0);
  p.on_poll(ctx);
  EXPECT_GT(p.proximity(), 0u);
}

TEST(Gradient, PushesDownhill) {
  FakeContext ctx(1, 4);
  GradientPolicy p;
  p.init(ctx);
  for (std::uint32_t i = 0; i < 10; ++i) ctx.add_object({1, i}, 1.0);
  p.on_poll(ctx);
  EXPECT_TRUE(ctx.migrations_.empty());  // nowhere downhill yet
  util::ByteWriter w;
  w.put<std::uint32_t>(0);  // neighbor 2 says: I'm underloaded
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 2, 1, r);
  ASSERT_FALSE(ctx.migrations_.empty());
  for (const auto& m : ctx.migrations_) EXPECT_EQ(m.dst, 2);
}

TEST(Master, WorkersReportAndAsk) {
  FakeContext ctx(3, 4);
  MasterPolicy p;
  p.init(ctx);
  ctx.set_load(0.5);
  p.on_poll(ctx);
  // A report and a need-work message, both to rank 0.
  ASSERT_EQ(ctx.sent_.size(), 2u);
  EXPECT_EQ(ctx.sent_[0].dst, 0);
  EXPECT_EQ(ctx.sent_[0].tag, 1);
  EXPECT_EQ(ctx.sent_[1].dst, 0);
  EXPECT_EQ(ctx.sent_[1].tag, 2);
  // Not repeated while the ask is pending.
  p.on_poll(ctx);
  EXPECT_EQ(ctx.sent_.size(), 2u);
}

TEST(Master, ManagerPairsNeedyWithHeaviest) {
  FakeContext ctx(0, 4);
  MasterPolicy p;
  p.init(ctx);
  // Reports: rank 1 heavy, rank 2 light.
  {
    util::ByteWriter w;
    w.put<double>(50.0);
    util::ByteReader r(w.bytes());
    p.on_message(ctx, 1, 1, r);
  }
  {
    util::ByteWriter w;
    w.put<double>(0.0);
    util::ByteReader r(w.bytes());
    p.on_message(ctx, 2, 2, r);  // need work
  }
  // Manager commands rank 1 to push toward rank 2.
  ASSERT_FALSE(ctx.sent_.empty());
  const auto& cmd = ctx.sent_.back();
  EXPECT_EQ(cmd.dst, 1);
  EXPECT_EQ(cmd.tag, 3);
  auto r = reader_of(cmd);
  EXPECT_EQ(r.get<ProcId>(), 2);
}

TEST(Master, DonorHonoursPushCommand) {
  FakeContext ctx(1, 4);
  MasterPolicy p;
  p.init(ctx);
  for (std::uint32_t i = 0; i < 10; ++i) ctx.add_object({1, i}, 1.0);
  util::ByteWriter w;
  w.put<ProcId>(2);
  w.put<double>(0.0);
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 0, 3, r);
  EXPECT_EQ(ctx.migrations_.size(), 5u);  // half the gap
  for (const auto& m : ctx.migrations_) EXPECT_EQ(m.dst, 2);
}

/// Poll at `load` and return how many reports (tag 1) went out to `dst`.
template <typename P>
std::size_t reports_after_poll(FakeContext& ctx, P& p, double load, ProcId dst) {
  ctx.set_load(load);
  p.on_poll(ctx);
  return static_cast<std::size_t>(
      std::count_if(ctx.sent_.begin(), ctx.sent_.end(),
                    [dst](const SentMsg& m) { return m.dst == dst && m.tag == 1; }));
}

TEST(Master, ReportHysteresis) {
  FakeContext ctx(1, 4);
  MasterPolicy p;
  p.init(ctx);
  EXPECT_EQ(reports_after_poll(ctx, p, 10.0, 0), 1u);
  // Inside max(1, 0.3 * 10): no report.
  EXPECT_EQ(reports_after_poll(ctx, p, 12.0, 0), 1u);
  EXPECT_EQ(reports_after_poll(ctx, p, 13.0, 0), 2u);
  EXPECT_EQ(reader_of(ctx.sent_.back()).get<double>(), 13.0);
}

TEST(MultiList, MemberReportHysteresis) {
  FakeContext ctx(5, 16);  // leader 4
  MultiListPolicy p;
  p.init(ctx);
  EXPECT_EQ(reports_after_poll(ctx, p, 10.0, 4), 1u);
  EXPECT_EQ(reports_after_poll(ctx, p, 12.0, 4), 1u);
  EXPECT_EQ(reports_after_poll(ctx, p, 13.0, 4), 2u);
  EXPECT_EQ(reader_of(ctx.sent_.back()).get<double>(), 13.0);
}

TEST(MultiList, DonorHonoursPushCommand) {
  FakeContext ctx(1, 4);  // groups of 2: leader 0
  MultiListPolicy p;
  p.init(ctx);
  for (std::uint32_t i = 0; i < 10; ++i) ctx.add_object({1, i}, 1.0);
  util::ByteWriter w;
  w.put<ProcId>(2);
  w.put<double>(0.0);
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 0, 3, r);
  EXPECT_EQ(ctx.migrations_.size(), 5u);  // half the gap
  for (const auto& m : ctx.migrations_) EXPECT_EQ(m.dst, 2);

  // At or below the donate threshold (4): ships nothing, re-reports.
  FakeContext low(1, 4);
  MultiListPolicy q;
  q.init(low);
  for (std::uint32_t i = 0; i < 4; ++i) low.add_object({1, i}, 1.0);
  util::ByteReader r2(w.bytes());
  q.on_message(low, 0, 3, r2);
  EXPECT_TRUE(low.migrations_.empty());
  ASSERT_EQ(low.sent_.size(), 1u);
  EXPECT_EQ(low.sent_[0].dst, 0);
  EXPECT_EQ(low.sent_[0].tag, 1);
  EXPECT_EQ(reader_of(low.sent_[0]).get<double>(), 4.0);
}

TEST(MultiList, LeaderMapping) {
  FakeContext ctx(7, 16);  // group size = 4
  MultiListPolicy p;
  p.init(ctx);
  EXPECT_EQ(p.leader(), 4);
  FakeContext ctx2(4, 16);
  MultiListPolicy p2;
  p2.init(ctx2);
  EXPECT_EQ(p2.leader(), 4);
}

TEST(MultiList, StarvedMemberAsksLeader) {
  FakeContext ctx(5, 16);
  MultiListPolicy p;
  p.init(ctx);
  ctx.set_load(0.0);
  p.on_poll(ctx);
  ASSERT_FALSE(ctx.sent_.empty());
  bool asked = false;
  for (const auto& m : ctx.sent_) {
    if (m.tag == 2) {
      asked = true;
      EXPECT_EQ(m.dst, 4);  // its leader
    }
  }
  EXPECT_TRUE(asked);
}

TEST(MultiList, LeaderPairsWithinGroup) {
  FakeContext ctx(4, 16);  // leader of ranks 4..7
  MultiListPolicy p;
  p.init(ctx);
  {
    util::ByteWriter w;
    w.put<double>(40.0);
    util::ByteReader r(w.bytes());
    p.on_message(ctx, 6, 1, r);  // member 6 reports heavy
  }
  {
    util::ByteWriter w;
    w.put<double>(0.0);
    util::ByteReader r(w.bytes());
    p.on_message(ctx, 5, 2, r);  // member 5 asks
  }
  bool pushed = false;
  for (const auto& m : ctx.sent_) {
    if (m.tag == 3) {
      pushed = true;
      EXPECT_EQ(m.dst, 6);
      auto r = reader_of(m);
      EXPECT_EQ(r.get<ProcId>(), 5);
    }
  }
  EXPECT_TRUE(pushed);
}

// ---------------------------------------------------------------------------
// Topology-aware policies (scripted PolicyContext overrides)
// ---------------------------------------------------------------------------

TEST(Sfc, CoordinatorRecutsAndShipsOutOfSegmentObjects) {
  FakeContext ctx(0, 2);
  ctx.topology_ = true;
  SfcPolicy p;
  p.init(ctx);
  // Two objects in opposite corners of the unit cube: a heavy one near the
  // origin, a light one near the far corner.
  const mol::MobilePtr near{0, 0};
  const mol::MobilePtr far{0, 1};
  ctx.coords_[near] = {0.1, 0.1, 0.1};
  ctx.coords_[far] = {0.9, 0.9, 0.9};
  ctx.add_object(near, 9.0);
  ctx.add_object(far, 1.0);
  ASSERT_NE(p.bucket_of(ctx, near), p.bucket_of(ctx, far));

  // The coordinator's own report is taken at the first poll...
  p.on_poll(ctx);
  EXPECT_EQ(p.stats().reports_sent, 1u);
  EXPECT_TRUE(ctx.sent_.empty());  // rank 0 never wires its report to itself
  // ...and once rank 1's (empty) histogram lands, the picture is complete:
  // segment loads 9 vs 1 against a share of 5 is a 1.8 imbalance -> recut.
  util::ByteWriter w;
  w.put<std::uint32_t>(0);
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 1, 20, r);

  EXPECT_EQ(p.stats().cuts_broadcast, 1u);
  ASSERT_EQ(ctx.sent_.size(), 1u);  // the cut table, broadcast to rank 1
  EXPECT_EQ(ctx.sent_[0].dst, 1);
  EXPECT_EQ(ctx.sent_[0].tag, 21);
  // The far-corner object's segment now belongs to rank 1; it ships.
  ASSERT_EQ(ctx.migrations_.size(), 1u);
  EXPECT_EQ(ctx.migrations_[0].ptr, far);
  EXPECT_EQ(ctx.migrations_[0].dst, 1);
  // The decision was traced with the post-cut segment count and imbalance.
  ASSERT_EQ(ctx.sfc_cuts_.size(), 1u);
  EXPECT_EQ(ctx.sfc_cuts_[0].first, 2u);
  EXPECT_DOUBLE_EQ(ctx.sfc_cuts_[0].second, 1.8);
}

TEST(Sfc, MemberAppliesCutTableFromWire) {
  FakeContext ctx(1, 2);
  ctx.topology_ = true;
  SfcPolicy p;
  p.init(ctx);
  const mol::MobilePtr mine{1, 0};
  ctx.coords_[mine] = {0.05, 0.05, 0.05};  // near the origin: rank 0 territory
  ctx.add_object(mine, 2.0);
  // Cut table: rank 0 owns the lower half of the buckets, rank 1 the upper.
  util::ByteWriter w;
  w.put<std::uint32_t>(2);
  w.put<std::uint32_t>(0);
  w.put<std::uint32_t>(SfcPolicy::kBuckets / 2);
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 0, 21, r);
  ASSERT_EQ(ctx.migrations_.size(), 1u);
  EXPECT_EQ(ctx.migrations_[0].dst, 0);
}

TEST(Sfc, IgnoresForeignTagsAndHashesCoordlessObjects) {
  FakeContext ctx(1, 4);
  ctx.topology_ = true;
  SfcPolicy p;
  p.init(ctx);
  // A stray in-flight work_stealing request (tag 1) from before a policy
  // switch must be ignored, not misdecoded or aborted on.
  util::ByteWriter w;
  w.put<double>(0.0);
  util::ByteReader r(w.bytes());
  p.on_message(ctx, 3, 1, r);
  EXPECT_TRUE(ctx.sent_.empty());
  EXPECT_TRUE(ctx.migrations_.empty());
  // Objects without coordinates hash to a stable in-range bucket.
  const mol::MobilePtr coordless{2, 7};
  const auto b = p.bucket_of(ctx, coordless);
  EXPECT_LT(b, SfcPolicy::kBuckets);
  EXPECT_EQ(b, p.bucket_of(ctx, coordless));
}

/// A kHist body carrying `bins` in the given order.
std::vector<std::uint8_t> hist_body(const std::vector<SfcPolicy::Bin>& bins) {
  util::ByteWriter w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(bins.size()));
  for (const auto& bin : bins) {
    w.put<std::uint32_t>(bin.bucket);
    w.put<double>(bin.load);
  }
  return w.take();
}

TEST(Sfc, SharedBucketWiresOneBinWithTheSummedWeight) {
  FakeContext ctx(1, 2);
  ctx.topology_ = true;
  SfcPolicy p;
  p.init(ctx);
  const mol::MobilePtr far{1, 0};
  const mol::MobilePtr a{1, 1};
  const mol::MobilePtr b{1, 2};
  ctx.coords_[far] = {0.9, 0.9, 0.9};
  ctx.coords_[a] = {0.1, 0.1, 0.1};
  ctx.coords_[b] = {0.1, 0.1, 0.1};
  ctx.add_object(far, 1.0);
  ctx.add_object(a, 1.5);
  ctx.add_object(b, 2.25);
  const auto near_bucket = p.bucket_of(ctx, a);
  const auto far_bucket = p.bucket_of(ctx, far);
  ASSERT_LT(near_bucket, far_bucket);

  p.on_poll(ctx);
  ASSERT_EQ(ctx.sent_.size(), 1u);
  EXPECT_EQ(ctx.sent_[0].dst, 0);
  EXPECT_EQ(ctx.sent_[0].tag, 20);
  // One bin per occupied bucket, ascending; a and b share theirs.
  auto r = reader_of(ctx.sent_[0]);
  ASSERT_EQ(r.get<std::uint32_t>(), 2u);
  EXPECT_EQ(r.get<std::uint32_t>(), near_bucket);
  EXPECT_EQ(r.get<double>(), 3.75);
  EXPECT_EQ(r.get<std::uint32_t>(), far_bucket);
  EXPECT_EQ(r.get<double>(), 1.0);
}

TEST(Sfc, OutOfOrderAndRepeatedBinsMergeAsOrderedSums) {
  // Rank 1's bins arrive unsorted, with both buckets repeated. The
  // coordinator must see, per bucket, the loads summed in arrival order —
  // here modelled with an ordered map — so the cut it makes equals the one
  // made from the already merged histogram, down to the last bit.
  const std::vector<SfcPolicy::Bin> messy = {
      {300, 0.1}, {100, 1.5}, {300, 0.7}, {100, 0.5}, {300, 0.3}};
  std::map<std::uint32_t, double> model;
  for (const auto& bin : messy) model[bin.bucket] += bin.load;
  std::vector<SfcPolicy::Bin> merged;
  for (const auto& [bucket, load] : model) merged.push_back({bucket, load});
  // Bucket 300's sum depends on the order it is taken in.
  ASSERT_NE(model[300], (0.3 + 0.7) + 0.1);

  auto cut_from = [](const std::vector<SfcPolicy::Bin>& bins) {
    FakeContext ctx(0, 2);
    ctx.topology_ = true;
    SfcPolicy p;
    p.init(ctx);
    p.on_poll(ctx);  // the coordinator's own (empty) report
    const auto body = hist_body(bins);
    util::ByteReader r(body);
    p.on_message(ctx, 1, 20, r);
    EXPECT_EQ(p.stats().cuts_broadcast, 1u);
    return std::make_pair(ctx.sent_, ctx.sfc_cuts_);
  };
  const auto [messy_sent, messy_cuts] = cut_from(messy);
  const auto [merged_sent, merged_cuts] = cut_from(merged);

  // Loads 2.0 | 1.1: rank 1's segment starts at bucket 300.
  ASSERT_EQ(messy_sent.size(), 1u);
  auto r = reader_of(messy_sent[0]);
  ASSERT_EQ(r.get<std::uint32_t>(), 2u);
  EXPECT_EQ(r.get<std::uint32_t>(), 0u);
  EXPECT_EQ(r.get<std::uint32_t>(), 300u);
  ASSERT_EQ(merged_sent.size(), 1u);
  EXPECT_EQ(messy_sent[0].body, merged_sent[0].body);
  ASSERT_EQ(messy_cuts.size(), 1u);
  ASSERT_EQ(merged_cuts.size(), 1u);
  EXPECT_EQ(messy_cuts[0].second, merged_cuts[0].second);  // bit for bit
  const double share = (model[100] + model[300]) / 2;
  EXPECT_EQ(messy_cuts[0].second, model[100] / share);
}

TEST(Sfc, BucketFollowsReRegisteredCoordinates) {
  FakeContext ctx(0, 2);
  ctx.topology_ = true;
  SfcPolicy p;
  const mol::MobilePtr obj{0, 0};
  ctx.coords_[obj] = {0.1, 0.1, 0.1};
  const auto near_bucket = p.bucket_of(ctx, obj);
  EXPECT_EQ(p.bucket_of(ctx, obj), near_bucket);
  // The application moves the object to the far corner (Mol::set_coords
  // overwrites); its bucket must follow.
  ctx.coords_[obj] = {0.9, 0.9, 0.9};
  const auto far_bucket = p.bucket_of(ctx, obj);
  EXPECT_NE(far_bucket, near_bucket);
  EXPECT_EQ(far_bucket, SfcPolicy().bucket_of(ctx, obj));
  ctx.coords_[obj] = {0.1, 0.1, 0.1};
  EXPECT_EQ(p.bucket_of(ctx, obj), near_bucket);
}

TEST(Sfc, EqualRankLoadsSendNoCuts) {
  FakeContext ctx(0, 2);
  ctx.topology_ = true;
  SfcPolicy p;
  p.init(ctx);
  const mol::MobilePtr mine{0, 0};
  ctx.coords_[mine] = {0.9, 0.9, 0.9};
  ctx.add_object(mine, 5.0);
  p.on_poll(ctx);
  // Rank 1 carries the same load, so the machine is in balance, although
  // both loads sit in buckets a cut would hand to the other rank.
  const auto body = hist_body({{1, 5.0}});
  util::ByteReader r(body);
  p.on_message(ctx, 1, 20, r);
  EXPECT_EQ(p.stats().cuts_broadcast, 0u);
  EXPECT_TRUE(ctx.sent_.empty());
  EXPECT_TRUE(ctx.migrations_.empty());
  EXPECT_TRUE(ctx.sfc_cuts_.empty());
}

TEST(Sfc, DrainTailCutKeepsUnreachedSegmentsEmpty) {
  // The last occupied bucket holds three of the four shares, so the prefix
  // walk assigns it to segments 1 and 2 and never reaches segment 3. That
  // segment must own nothing, rather than every bucket.
  FakeContext ctx(0, 4);
  ctx.topology_ = true;
  SfcPolicy p;
  p.init(ctx);
  const mol::MobilePtr light{0, 0};
  const mol::MobilePtr heavy{0, 1};
  ctx.coords_[light] = {0.1, 0.1, 0.1};
  ctx.coords_[heavy] = {0.9, 0.9, 0.9};
  ctx.add_object(light, 1.0);
  ctx.add_object(heavy, 3.0);
  ASSERT_LT(p.bucket_of(ctx, light), p.bucket_of(ctx, heavy));
  p.on_poll(ctx);
  for (ProcId from = 1; from < 4; ++from) {
    const auto body = hist_body({});
    util::ByteReader r(body);
    p.on_message(ctx, from, 20, r);
  }
  EXPECT_EQ(p.stats().cuts_broadcast, 1u);
  // The light object stays in segment 0; the heavy one goes to the last
  // segment the walk reached.
  ASSERT_EQ(ctx.migrations_.size(), 1u);
  EXPECT_EQ(ctx.migrations_[0].ptr, heavy);
  EXPECT_EQ(ctx.migrations_[0].dst, 2);
}

TEST(PolicyFactory, MakesEveryRegisteredPolicy) {
  EXPECT_EQ(policy_names(),
            (std::vector<std::string>{"null", "work_stealing", "diffusion",
                                      "gradient", "master", "multilist",
                                      "sfc"}));
  for (const std::string& name : policy_names()) {
    auto p = make_policy(name);
    ASSERT_NE(p, nullptr);
    if (name != "null") {
      EXPECT_EQ(p->name(), name);
    }
    // The topology split: exactly sfc consumes the widened view.
    EXPECT_EQ(p->wants_topology(), name == "sfc") << name;
  }
}

TEST(PolicyFactoryDeathTest, UnknownNameAborts) {
  EXPECT_DEATH((void)make_policy("simulated_annealing"), "unknown");
}

}  // namespace
}  // namespace prema::ilb
