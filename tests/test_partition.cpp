#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.hpp"
#include "partition/adaptive.hpp"
#include "partition/coarsen.hpp"
#include "partition/multilevel.hpp"
#include "partition/refine.hpp"

namespace prema::part {
namespace {

using graph::CsrGraph;
using graph::Partition;
using graph::VertexId;

bool uses_all_parts(const Partition& p, int k) {
  std::set<std::int32_t> seen(p.begin(), p.end());
  return static_cast<int>(seen.size()) == k &&
         *seen.begin() == 0 && *seen.rbegin() == k - 1;
}

TEST(Coarsen, HalvesGridRoughly) {
  util::Rng rng(3);
  const CsrGraph g = graph::grid2d(16, 16);
  const CoarseLevel lvl = coarsen_once(g, rng);
  EXPECT_LT(lvl.graph.num_vertices(), g.num_vertices());
  EXPECT_GE(lvl.graph.num_vertices(), g.num_vertices() / 2);
  // Weight is conserved.
  EXPECT_DOUBLE_EQ(lvl.graph.total_vertex_weight(), g.total_vertex_weight());
  lvl.graph.validate();
  // Mapping covers every fine vertex.
  for (const auto c : lvl.fine_to_coarse) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, lvl.graph.num_vertices());
  }
}

TEST(Coarsen, StopsOnEdgelessGraph) {
  util::Rng rng(3);
  const CsrGraph g = CsrGraph::edgeless(100);
  const auto levels = coarsen_to(g, 10, rng);
  EXPECT_TRUE(levels.empty());  // matching cannot contract anything
}

TEST(Coarsen, ReachesTarget) {
  util::Rng rng(3);
  const CsrGraph g = graph::grid2d(32, 32);
  const auto levels = coarsen_to(g, 128, rng);
  ASSERT_FALSE(levels.empty());
  EXPECT_LE(levels.back().graph.num_vertices(), 2 * 128);
  EXPECT_DOUBLE_EQ(levels.back().graph.total_vertex_weight(),
                   g.total_vertex_weight());
}

TEST(Lpt, BalancesSkewedWeights) {
  graph::GraphBuilder b(5);
  const double w[] = {10, 7, 5, 4, 4};
  for (VertexId v = 0; v < 5; ++v) b.set_vertex_weight(v, w[v]);
  const CsrGraph g = b.build();
  const Partition p = lpt_partition(g, 2);
  // LPT places 10 | 7, then 5 -> lighter (7), 4 -> lighter (10), 4 -> 12:
  // {10, 4} vs {7, 5, 4} = 14 vs 16.
  const auto pw = graph::part_weights(g, p, 2);
  EXPECT_DOUBLE_EQ(std::max(pw[0], pw[1]), 16.0);
  EXPECT_DOUBLE_EQ(std::min(pw[0], pw[1]), 14.0);
}

class MultilevelSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // (grid, k)

TEST_P(MultilevelSweep, BalancedAndLocalized) {
  const auto [side, k] = GetParam();
  const CsrGraph g = graph::grid2d(side, side);
  PartitionOptions opts;
  opts.k = k;
  const Partition p = multilevel_kway(g, opts);
  ASSERT_EQ(p.size(), static_cast<std::size_t>(g.num_vertices()));
  EXPECT_TRUE(uses_all_parts(p, k));
  EXPECT_LE(graph::imbalance(g, p, k), 1.12);
  // A sane cut: far below the worst case and within a constant factor of the
  // ideal grid separator (k-1 straight lines of length `side`).
  const double cut = graph::edge_cut(g, p);
  EXPECT_LT(cut, 6.0 * side * k);
}

INSTANTIATE_TEST_SUITE_P(Grids, MultilevelSweep,
                         ::testing::Values(std::make_tuple(16, 2),
                                           std::make_tuple(16, 4),
                                           std::make_tuple(24, 3),
                                           std::make_tuple(32, 8),
                                           std::make_tuple(20, 7)));

TEST(Multilevel, EdgelessFallsBackToLpt) {
  graph::GraphBuilder b(40);
  for (VertexId v = 0; v < 40; ++v) b.set_vertex_weight(v, (v % 4) + 1.0);
  const CsrGraph g = b.build();
  PartitionOptions opts;
  opts.k = 5;
  const Partition p = multilevel_kway(g, opts);
  EXPECT_LE(graph::imbalance(g, p, 5), 1.05);
}

TEST(Multilevel, SingletonAndTrivialCases) {
  const CsrGraph g = graph::grid2d(4, 4);
  PartitionOptions opts;
  opts.k = 1;
  const Partition p = multilevel_kway(g, opts);
  EXPECT_TRUE(std::all_of(p.begin(), p.end(), [](auto x) { return x == 0; }));
}

TEST(Multilevel, DeterministicForFixedSeed) {
  const CsrGraph g = graph::grid2d(20, 20);
  PartitionOptions opts;
  opts.k = 4;
  opts.seed = 99;
  EXPECT_EQ(multilevel_kway(g, opts), multilevel_kway(g, opts));
}

TEST(Refine, ImprovesABadSplit) {
  const CsrGraph g = graph::grid2d(16, 16);
  // Interleaved stripes: terrible cut, perfect balance.
  Partition p(static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    p[static_cast<std::size_t>(v)] = (v / 16) % 2;
  }
  const double before = graph::edge_cut(g, p);
  refine_kway(g, p, 2);
  const double after = graph::edge_cut(g, p);
  EXPECT_LT(after, before);
  EXPECT_LE(graph::imbalance(g, p, 2), kImbalanceTolerance + 1e-9);
}

TEST(Rebalance, FixesOverloadedPart) {
  const CsrGraph g = graph::grid2d(10, 10);
  Partition p(100, 0);
  for (int v = 0; v < 10; ++v) p[static_cast<std::size_t>(v)] = 1;  // 90/10
  const int moves = rebalance_kway(g, p, 2);
  EXPECT_GT(moves, 0);
  EXPECT_LE(graph::imbalance(g, p, 2), kImbalanceTolerance + 1e-9);
}

TEST(RemapLabels, RecoversAPermutation) {
  const CsrGraph g = graph::grid2d(8, 8);
  PartitionOptions opts;
  opts.k = 4;
  const Partition base = multilevel_kway(g, opts);
  // Permute labels 0->2, 1->3, 2->1, 3->0; remap must undo it exactly.
  const int perm[] = {2, 3, 1, 0};
  Partition shuffled(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    shuffled[i] = perm[base[i]];
  }
  const Partition remapped = remap_labels(g, base, shuffled, 4);
  EXPECT_EQ(remapped, base);
}

TEST(Adaptive, RestoresBalanceAfterWeightDrift) {
  // Balanced partition of a grid; then one region's weights spike 8x (the
  // "crack tip" scenario). AdaptiveRepart must rebalance.
  const CsrGraph base = graph::grid2d(16, 16);
  PartitionOptions popts;
  popts.k = 4;
  const Partition old_part = multilevel_kway(base, popts);

  graph::GraphBuilder b(base.num_vertices());
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    const bool hot = (v % 16) < 4 && (v / 16) < 4;  // 4x4 corner
    b.set_vertex_weight(v, hot ? 8.0 : 1.0);
  }
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    const auto nbrs = base.neighbors(v);
    for (const auto u : nbrs) {
      if (u > v) b.add_edge(v, u, 1.0);
    }
  }
  const CsrGraph drifted = b.build();
  EXPECT_GT(graph::imbalance(drifted, old_part, 4), 1.3);

  AdaptiveOptions aopts;
  aopts.k = 4;
  aopts.alpha = 1.0;
  const AdaptiveResult res = adaptive_repartition(drifted, old_part, aopts);
  EXPECT_LE(graph::imbalance(drifted, res.partition, 4), 1.12);
  EXPECT_GT(res.migration, 0.0);
  EXPECT_DOUBLE_EQ(res.cost, res.edge_cut + aopts.alpha * res.migration);
}

TEST(Adaptive, HighAlphaPrefersLowMigration) {
  // With movement very expensive, the unified objective should pick a
  // partition that moves (weakly) less than the cheap-movement setting.
  const CsrGraph base = graph::grid2d(12, 12);
  PartitionOptions popts;
  popts.k = 3;
  const Partition old_part = multilevel_kway(base, popts);
  graph::GraphBuilder b(base.num_vertices());
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    b.set_vertex_weight(v, (v % 12) < 4 ? 4.0 : 1.0);
  }
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    for (const auto u : base.neighbors(v)) {
      if (u > v) b.add_edge(v, u, 1.0);
    }
  }
  const CsrGraph drifted = b.build();
  AdaptiveOptions cheap;
  cheap.k = 3;
  cheap.alpha = 0.01;
  AdaptiveOptions dear;
  dear.k = 3;
  dear.alpha = 100.0;
  const auto r_cheap = adaptive_repartition(drifted, old_part, cheap);
  const auto r_dear = adaptive_repartition(drifted, old_part, dear);
  EXPECT_LE(r_dear.migration, r_cheap.migration + 1e-9);
}

TEST(Adaptive, NoDriftMeansNoMovement) {
  const CsrGraph g = graph::grid2d(12, 12);
  PartitionOptions popts;
  popts.k = 4;
  const Partition old_part = multilevel_kway(g, popts);
  AdaptiveOptions aopts;
  aopts.k = 4;
  aopts.alpha = 10.0;
  const auto res = adaptive_repartition(g, old_part, aopts);
  // Already balanced: the diffusive candidate should win with (near-)zero
  // migration under a high alpha.
  EXPECT_FALSE(res.chose_scratch_remap);
  EXPECT_LT(res.migration, 0.05 * g.total_vertex_weight());
}

TEST(Adaptive, EdgelessWorkloadRebalances) {
  // The synthetic benchmark's graph: no edges, skewed weights.
  graph::GraphBuilder b(64);
  for (VertexId v = 0; v < 64; ++v) b.set_vertex_weight(v, v < 8 ? 10.0 : 1.0);
  const CsrGraph g = b.build();
  Partition old_part(64);
  for (VertexId v = 0; v < 64; ++v) old_part[static_cast<std::size_t>(v)] = v / 16;
  AdaptiveOptions aopts;
  aopts.k = 4;
  const auto res = adaptive_repartition(g, old_part, aopts);
  EXPECT_LE(graph::imbalance(g, res.partition, 4), 1.1);
}

TEST(ModeledCost, GrowsWithGraphSize) {
  const CsrGraph small = graph::grid2d(8, 8);
  const CsrGraph big = graph::grid2d(64, 64);
  EXPECT_GT(modeled_partition_seconds(big, 8), modeled_partition_seconds(small, 8));
  EXPECT_GT(modeled_partition_seconds(small, 8), 0.0);
}

}  // namespace
}  // namespace prema::part
