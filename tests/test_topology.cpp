#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <tuple>

#include "dmcs/sim_machine.hpp"
#include "ilb/sfc_key.hpp"
#include "prema/runtime.hpp"

/// \file test_topology.cpp
/// The topology view behind the sfc policy: Hilbert-curve keys,
/// the MOL's per-object coordinate map, and end-to-end runs proving the
/// coordinates follow migrating objects through the full MOL wire path and
/// stay off under scalar policies.

namespace prema {
namespace {

using mol::MobilePtr;

// ---------------------------------------------------------------------------
// Space-filling-curve keys
// ---------------------------------------------------------------------------

TEST(SfcKey, BoxNormalizationAndDegenerateAxes) {
  // Coordinates normalize in the unit cube, whose origin starts the curve.
  EXPECT_EQ(ilb::hilbert_key({0.0, 0.0, 0.0}), 0u);
  // The curve fills the origin's octant first: the all-low corner precedes
  // the all-high one.
  EXPECT_LT(ilb::hilbert_key({0.1, 0.1, 0.1}), ilb::hilbert_key({0.9, 0.9, 0.9}));
  // Out-of-box coordinates clamp to the faces instead of wrapping.
  EXPECT_EQ(ilb::hilbert_key({-3.0, 0.0, 0.0}), ilb::hilbert_key({0.0, 0.0, 0.0}));
  EXPECT_EQ(ilb::hilbert_key({0.5, 7.0, 0.5}), ilb::hilbert_key({0.5, 1.0, 0.5}));
}

TEST(SfcKey, HilbertStartsAtOriginAndVisitsCoarseCellsContiguously) {
  EXPECT_EQ(ilb::hilbert_from_cells(0, 0, 0), 0u);
  // Sample the 4x4x4 coarse grid (top two bits per axis). A correct Hilbert
  // curve traverses each coarse block contiguously, and consecutive blocks
  // are face-adjacent: sorted by key, neighbors must differ by exactly one
  // block step on exactly one axis. Morton fails this (its octant jumps are
  // diagonal); this pins the locality property the sfc policy buys.
  constexpr std::uint32_t kStep = 1u << (ilb::kSfcBitsPerDim - 2);
  std::map<std::uint64_t, std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>>
      by_key;
  for (std::uint32_t x = 0; x < 4; ++x) {
    for (std::uint32_t y = 0; y < 4; ++y) {
      for (std::uint32_t z = 0; z < 4; ++z) {
        by_key[ilb::hilbert_from_cells(x * kStep, y * kStep, z * kStep)] = {x, y, z};
      }
    }
  }
  ASSERT_EQ(by_key.size(), 64u);  // all keys distinct
  auto prev = by_key.begin();
  for (auto it = std::next(by_key.begin()); it != by_key.end(); ++it, ++prev) {
    const auto [px, py, pz] = prev->second;
    const auto [x, y, z] = it->second;
    const int dx = std::abs(static_cast<int>(x) - static_cast<int>(px));
    const int dy = std::abs(static_cast<int>(y) - static_cast<int>(py));
    const int dz = std::abs(static_cast<int>(z) - static_cast<int>(pz));
    EXPECT_EQ(dx + dy + dz, 1) << "jump between coarse cells (" << px << ","
                               << py << "," << pz << ") and (" << x << "," << y
                               << "," << z << ")";
  }
}

// ---------------------------------------------------------------------------
// Per-object coordinates in the MOL
// ---------------------------------------------------------------------------

TEST(Topology, CoordsRegisterOverwriteAndMiss) {
  sim::MachineConfig mcfg;
  mcfg.nprocs = 2;
  dmcs::SimMachine machine(mcfg);
  RuntimeConfig rcfg;
  rcfg.policy = "sfc";  // wants topology: the runtime enables accounting
  Runtime rt(machine, rcfg);
  mol::Mol& m = rt.mol_at(0);
  ASSERT_TRUE(m.topology_enabled());

  const MobilePtr a{0, 0};
  EXPECT_FALSE(m.coords(a).has_value());
  m.set_coords(a, {0.25, 0.5, 0.75});
  auto c = m.coords(a);
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c->y, 0.5);
  m.set_coords(a, {1.0, 1.0, 1.0});  // idempotent overwrite, not a merge
  c = m.coords(a);
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c->x, 1.0);
  // Each processor keeps its own map: rank 1 has not heard of `a`.
  EXPECT_FALSE(rt.mol_at(1).coords(a).has_value());
}

// ---------------------------------------------------------------------------
// End-to-end: coordinates follow objects through real MOL migrations
// ---------------------------------------------------------------------------

/// Minimal migratable object for the ring workload below.
class Node : public mol::MobileObject {
 public:
  [[nodiscard]] std::uint32_t type_id() const override { return 1; }
  void serialize(util::ByteWriter&) const override {}
  static std::unique_ptr<mol::MobileObject> make(util::ByteReader&) {
    return std::make_unique<Node>();
  }
};

TEST(Topology, CoordsFollowObjectsUnderSfcMigration) {
  // 16 objects, all born on rank 0, strung along the x axis; each handler
  // passes a token to the next object in the ring. The sfc policy recuts the
  // curve and ships objects to their segments mid-run, so each object's
  // coordinates must cross the real migration wire with it and leave the
  // rank it left.
  constexpr int kObjects = 16;
  constexpr std::int64_t kHops = 6;
  sim::MachineConfig mcfg;
  mcfg.nprocs = 4;
  mcfg.mflops = 100.0;  // 5 Mflop/unit = 50 ms: slow enough to rebalance
  dmcs::PollingConfig pcfg;
  pcfg.mode = dmcs::PollingMode::kPreemptive;
  pcfg.interval_s = 1e-3;
  dmcs::SimMachine machine(mcfg, pcfg);

  RuntimeConfig rcfg;
  rcfg.policy = "sfc";
  Runtime rt(machine, rcfg);
  rt.object_types().add(1, Node::make);
  const auto pass = rt.register_object_handler(
      "pass", [](Context& ctx, mol::MobileObject&, util::ByteReader& r,
                 const mol::Delivery& d) {
        ctx.compute(5.0);
        const auto hops = r.get<std::int64_t>();
        if (hops > 0) {
          const MobilePtr next{0, (d.target.index + 1) % kObjects};
          util::ByteWriter w;
          w.put<std::int64_t>(hops - 1);
          ctx.message(next, d.handler, w.take(), 1.0);
        }
      });

  rt.set_main([&](Context& ctx) {
    if (ctx.rank() != 0) return;
    for (int i = 0; i < kObjects; ++i) {
      const auto ptr = ctx.add_object(std::make_unique<Node>());
      ctx.set_coords(ptr, {(i + 0.5) / kObjects, 0.5, 0.5});
      util::ByteWriter w;
      w.put<std::int64_t>(kHops);
      ctx.message(ptr, pass, w.take(), 1.0);
    }
  });
  rt.run();
  ASSERT_TRUE(rt.termination_detected());

  std::uint64_t migrations = 0;
  int resident = 0;
  for (ProcId p = 0; p < mcfg.nprocs; ++p) {
    auto& m = rt.mol_at(p);
    migrations += m.stats().migrations_in;
    for (int i = 0; i < kObjects; ++i) {
      const MobilePtr ptr{0, static_cast<std::uint32_t>(i)};
      const auto c = m.coords(ptr);
      if (m.is_local(ptr)) {
        // The resident rank answers with the coordinates registered at birth.
        ++resident;
        ASSERT_TRUE(c.has_value()) << "object " << i << " on rank " << p;
        EXPECT_DOUBLE_EQ(c->x, (i + 0.5) / kObjects);
      } else {
        // A rank the object left (or never held) no longer answers for it.
        EXPECT_FALSE(c.has_value()) << "object " << i << " on rank " << p;
      }
    }
  }
  EXPECT_GT(migrations, 0u);  // ...and migrations actually happened
  EXPECT_EQ(resident, kObjects);
  EXPECT_LT(rt.mol_at(0).local_count(), static_cast<std::size_t>(kObjects));
}

TEST(Topology, AccountingIsOffForScalarPolicies) {
  // With a scalar policy the runtime never enables topology accounting:
  // coordinate registration is a silent no-op, so the migrate wire image
  // (and the determinism contract) is untouched.
  sim::MachineConfig mcfg;
  mcfg.nprocs = 2;
  mcfg.mflops = 1000.0;
  dmcs::SimMachine machine(mcfg);
  RuntimeConfig rcfg;
  rcfg.policy = "null";
  Runtime rt(machine, rcfg);
  rt.object_types().add(1, Node::make);
  const auto work = rt.register_object_handler(
      "work", [](Context& ctx, mol::MobileObject&, util::ByteReader&,
                 const mol::Delivery& d) {
        ctx.compute(1.0);
        if (d.target.index == 0) ctx.message({0, 1}, d.handler, {}, 1.0);
      });
  MobilePtr first;
  rt.set_main([&](Context& ctx) {
    if (ctx.rank() != 0) return;
    first = ctx.add_object(std::make_unique<Node>());
    ctx.set_coords(first, {0.5, 0.5, 0.5});
    ctx.add_object(std::make_unique<Node>());
    ctx.message(first, work, {}, 1.0);
  });
  rt.run();
  EXPECT_FALSE(rt.mol_at(0).topology_enabled());
  EXPECT_FALSE(rt.mol_at(0).coords(first).has_value());
}

}  // namespace
}  // namespace prema
