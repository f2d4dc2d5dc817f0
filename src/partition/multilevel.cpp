#include "partition/multilevel.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "partition/coarsen.hpp"
#include "support/assert.hpp"

namespace prema::part {

using graph::CsrGraph;
using graph::Partition;
using graph::VertexId;

Partition lpt_partition(const CsrGraph& g, int k) {
  PREMA_CHECK(k > 0);
  std::vector<VertexId> order(static_cast<std::size_t>(g.num_vertices()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    if (g.vertex_weight(a) != g.vertex_weight(b)) {
      return g.vertex_weight(a) > g.vertex_weight(b);
    }
    return a < b;
  });
  Partition part(static_cast<std::size_t>(g.num_vertices()), 0);
  // Min-heap of (part weight, part id).
  std::priority_queue<std::pair<double, int>, std::vector<std::pair<double, int>>,
                      std::greater<>>
      heap;
  for (int p = 0; p < k; ++p) heap.emplace(0.0, p);
  for (const VertexId v : order) {
    auto [w, p] = heap.top();
    heap.pop();
    part[static_cast<std::size_t>(v)] = p;
    heap.emplace(w + g.vertex_weight(v), p);
  }
  return part;
}

namespace {

/// Coarsen until at most max(kCoarseFactor * k, 64) vertices remain.
constexpr int kCoarseFactor = 16;
/// Independent graph-growing attempts per bisection; best cut wins.
constexpr int kGrowingAttempts = 4;

/// 2-way split by graph growing: BFS-grow a region from a random seed,
/// preferring the frontier vertex most connected to the region, until the
/// region holds `target_fraction` of the total weight. Side 0 = region.
Partition grow_bisection(const CsrGraph& g, double target_fraction,
                         util::Rng& rng) {
  const VertexId n = g.num_vertices();
  const double target = g.total_vertex_weight() * target_fraction;
  Partition best;
  double best_cut = 0.0;
  for (int attempt = 0; attempt < kGrowingAttempts; ++attempt) {
    Partition part(static_cast<std::size_t>(n), 1);
    const auto seed = static_cast<VertexId>(rng.below(static_cast<std::uint64_t>(n)));
    // gain[v] = connectivity to the grown region; -1 = already inside.
    std::vector<double> gain(static_cast<std::size_t>(n), 0.0);
    std::vector<char> inside(static_cast<std::size_t>(n), 0);
    double grown = 0.0;
    VertexId next = seed;
    while (grown < target) {
      inside[static_cast<std::size_t>(next)] = 1;
      part[static_cast<std::size_t>(next)] = 0;
      grown += g.vertex_weight(next);
      const auto nbrs = g.neighbors(next);
      const auto wgts = g.edge_weights(next);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (!inside[static_cast<std::size_t>(nbrs[i])]) {
          gain[static_cast<std::size_t>(nbrs[i])] += wgts[i];
        }
      }
      // Pick the most-connected frontier vertex; fall back to any outside
      // vertex when the region's component is exhausted.
      VertexId pick = -1;
      double pick_gain = -1.0;
      for (VertexId v = 0; v < n; ++v) {
        if (inside[static_cast<std::size_t>(v)]) continue;
        if (gain[static_cast<std::size_t>(v)] > pick_gain) {
          pick_gain = gain[static_cast<std::size_t>(v)];
          pick = v;
        }
      }
      if (pick < 0) break;  // everything inside
      next = pick;
    }
    const double cut = graph::edge_cut(g, part);
    if (best.empty() || cut < best_cut) {
      best = std::move(part);
      best_cut = cut;
    }
  }
  return best;
}

/// Recursive bisection into k parts; labels written into `out` restricted to
/// the vertex set `vertices` (global ids), using labels [label0, label0 + k).
void recursive_bisect(const CsrGraph& g, const std::vector<VertexId>& vertices,
                      int k, int label0, Partition& out, util::Rng& rng) {
  if (k == 1) {
    for (const VertexId v : vertices) out[static_cast<std::size_t>(v)] = label0;
    return;
  }
  // Build the induced subgraph.
  std::vector<VertexId> local(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    local[static_cast<std::size_t>(vertices[i])] = static_cast<VertexId>(i);
  }
  graph::GraphBuilder b(static_cast<VertexId>(vertices.size()));
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    const VertexId v = vertices[i];
    b.set_vertex_weight(static_cast<VertexId>(i), g.vertex_weight(v));
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.edge_weights(v);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      const VertexId lu = local[static_cast<std::size_t>(nbrs[j])];
      if (lu < 0 || nbrs[j] <= v) continue;
      b.add_edge(static_cast<VertexId>(i), lu, wgts[j]);
    }
  }
  const CsrGraph sub = b.build();

  const int k0 = k / 2;
  const int k1 = k - k0;
  Partition split;
  if (sub.num_edges() == 0) {
    split = lpt_partition(sub, 2);
    // lpt gives two balanced halves; rescale to the k0:k1 target by a
    // rebalance pass below if needed.
  } else {
    split = grow_bisection(sub, static_cast<double>(k0) / k, rng);
  }
  // Two-way refinement with the k0:k1 weight target handled by tolerance on
  // the two-part view (approximation: tolerate the ratio).
  refine_kway(sub, split, 2);

  std::vector<VertexId> side0, side1;
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    (split[i] == 0 ? side0 : side1).push_back(vertices[i]);
  }
  // Degenerate splits (everything on one side) are rescued by LPT.
  if (side0.empty() || side1.empty()) {
    split = lpt_partition(sub, 2);
    side0.clear();
    side1.clear();
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      (split[i] == 0 ? side0 : side1).push_back(vertices[i]);
    }
  }
  recursive_bisect(g, side0, k0, label0, out, rng);
  recursive_bisect(g, side1, k1, label0 + k0, out, rng);
}

}  // namespace

Partition multilevel_kway(const CsrGraph& g, const PartitionOptions& opts) {
  PREMA_CHECK(opts.k > 0);
  const VertexId n = g.num_vertices();
  if (opts.k == 1) return Partition(static_cast<std::size_t>(n), 0);
  if (n == 0) return {};
  util::Rng rng(opts.seed);

  if (g.num_edges() == 0) return lpt_partition(g, opts.k);

  // Coarsen.
  const auto target =
      static_cast<VertexId>(std::max(64, kCoarseFactor * opts.k));
  const auto levels = coarsen_to(g, target, rng);
  const CsrGraph& coarsest = levels.empty() ? g : levels.back().graph;

  // Initial partition on the coarsest graph.
  std::vector<VertexId> all(static_cast<std::size_t>(coarsest.num_vertices()));
  std::iota(all.begin(), all.end(), 0);
  Partition part(static_cast<std::size_t>(coarsest.num_vertices()), 0);
  recursive_bisect(coarsest, all, opts.k, 0, part, rng);

  // Uncoarsen with refinement at every level.
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    const CsrGraph& fine =
        (std::next(it) == levels.rend()) ? g : std::next(it)->graph;
    Partition fine_part(static_cast<std::size_t>(fine.num_vertices()));
    for (VertexId v = 0; v < fine.num_vertices(); ++v) {
      fine_part[static_cast<std::size_t>(v)] =
          part[static_cast<std::size_t>(it->fine_to_coarse[static_cast<std::size_t>(v)])];
    }
    part = std::move(fine_part);
    rebalance_kway(fine, part, opts.k);
    refine_kway(fine, part, opts.k);
  }
  if (levels.empty()) {
    rebalance_kway(g, part, opts.k);
    refine_kway(g, part, opts.k);
  }
  return part;
}

double modeled_partition_seconds(const CsrGraph& g, int k, double mflops) {
  // Multilevel partitioning is O((V + E) log k)-ish with a healthy constant;
  // ~3 kflop per vertex+edge per level reproduces METIS-era runtimes on a
  // 333 MHz UltraSPARC (seconds for ~100k vertices).
  const double units = static_cast<double>(g.num_vertices()) +
                       static_cast<double>(g.num_edges());
  const double levels = std::max(1.0, std::log2(static_cast<double>(std::max(2, k))));
  const double mflop = 3e-3 * units * levels;
  return mflop / mflops;
}

}  // namespace prema::part
