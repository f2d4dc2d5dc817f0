#include "partition/refine.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "support/assert.hpp"

namespace prema::part {

using graph::CsrGraph;
using graph::Partition;
using graph::VertexId;

namespace {

/// Greedy passes over the boundary before giving up.
constexpr int kRefinePasses = 8;

/// Sum of edge weights from v into each part it touches; returns (weights by
/// part via out-param map-on-stack, internal weight).
struct NeighborParts {
  // Small fixed scan: parts adjacent to a vertex are few; collect pairs.
  std::vector<std::pair<std::int32_t, double>> weights;

  double find(std::int32_t p) const {
    for (const auto& [part, w] : weights) {
      if (part == p) return w;
    }
    return 0.0;
  }
};

NeighborParts neighbor_parts(const CsrGraph& g, const Partition& part, VertexId v) {
  NeighborParts np;
  const auto nbrs = g.neighbors(v);
  const auto wgts = g.edge_weights(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const auto p = part[static_cast<std::size_t>(nbrs[i])];
    bool found = false;
    for (auto& [q, w] : np.weights) {
      if (q == p) {
        w += wgts[i];
        found = true;
        break;
      }
    }
    if (!found) np.weights.emplace_back(p, wgts[i]);
  }
  return np;
}

}  // namespace

int refine_kway(const CsrGraph& g, Partition& part, int k, const Partition* anchor,
                double alpha) {
  PREMA_CHECK(part.size() == static_cast<std::size_t>(g.num_vertices()));
  auto weights = graph::part_weights(g, part, k);
  const double mean = g.total_vertex_weight() / k;
  const double max_weight = mean * kImbalanceTolerance;

  int total_moves = 0;
  for (int pass = 0; pass < kRefinePasses; ++pass) {
    int moves = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto from = part[static_cast<std::size_t>(v)];
      const auto np = neighbor_parts(g, part, v);
      const double internal = np.find(from);
      std::int32_t best_to = from;
      double best_gain = 0.0;
      for (const auto& [to, external] : np.weights) {
        if (to == from) continue;
        if (weights[static_cast<std::size_t>(to)] + g.vertex_weight(v) > max_weight) {
          continue;
        }
        double gain = external - internal;
        if (anchor != nullptr) {
          const auto home = (*anchor)[static_cast<std::size_t>(v)];
          // Moving toward home refunds migration cost; away charges it.
          if (to == home && from != home) gain += alpha * g.vertex_weight(v);
          if (from == home && to != home) gain -= alpha * g.vertex_weight(v);
        }
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best_to = to;
        }
      }
      if (best_to != from) {
        weights[static_cast<std::size_t>(from)] -= g.vertex_weight(v);
        weights[static_cast<std::size_t>(best_to)] += g.vertex_weight(v);
        part[static_cast<std::size_t>(v)] = best_to;
        ++moves;
      }
    }
    total_moves += moves;
    if (moves == 0) break;
  }
  return total_moves;
}

namespace {

/// O(n log n) rebalance for graphs without edges (pure number partitioning):
/// overloaded parts shed their heaviest vertices into a pool, which is then
/// LPT-assigned to the lightest parts.
int rebalance_edgeless(const CsrGraph& g, Partition& part, int k) {
  auto weights = graph::part_weights(g, part, k);
  const double mean = g.total_vertex_weight() / k;
  const double max_weight = mean * kImbalanceTolerance;

  std::vector<std::vector<VertexId>> members(static_cast<std::size_t>(k));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    members[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])].push_back(v);
  }
  std::vector<VertexId> pool;
  for (int p = 0; p < k; ++p) {
    if (weights[static_cast<std::size_t>(p)] <= max_weight) continue;
    auto& vs = members[static_cast<std::size_t>(p)];
    std::sort(vs.begin(), vs.end(), [&](VertexId a, VertexId b) {
      if (g.vertex_weight(a) != g.vertex_weight(b)) {
        return g.vertex_weight(a) > g.vertex_weight(b);
      }
      return a < b;
    });
    for (const VertexId v : vs) {
      if (weights[static_cast<std::size_t>(p)] <= max_weight) break;
      // Never shed below the mean: that would just invert the imbalance.
      if (weights[static_cast<std::size_t>(p)] - g.vertex_weight(v) < mean) continue;
      weights[static_cast<std::size_t>(p)] -= g.vertex_weight(v);
      pool.push_back(v);
    }
  }
  if (pool.empty()) return 0;
  std::sort(pool.begin(), pool.end(), [&](VertexId a, VertexId b) {
    if (g.vertex_weight(a) != g.vertex_weight(b)) {
      return g.vertex_weight(a) > g.vertex_weight(b);
    }
    return a < b;
  });
  std::priority_queue<std::pair<double, int>, std::vector<std::pair<double, int>>,
                      std::greater<>>
      heap;
  for (int p = 0; p < k; ++p) heap.emplace(weights[static_cast<std::size_t>(p)], p);
  for (const VertexId v : pool) {
    auto [w, p] = heap.top();
    heap.pop();
    part[static_cast<std::size_t>(v)] = p;
    heap.emplace(w + g.vertex_weight(v), p);
  }
  return static_cast<int>(pool.size());
}

}  // namespace

int rebalance_kway(const CsrGraph& g, Partition& part, int k) {
  PREMA_CHECK(part.size() == static_cast<std::size_t>(g.num_vertices()));
  if (g.num_edges() == 0) return rebalance_edgeless(g, part, k);
  auto weights = graph::part_weights(g, part, k);
  const double mean = g.total_vertex_weight() / k;
  const double max_weight = mean * kImbalanceTolerance;

  // Bucket vertices by part once; move out of overweight parts, preferring
  // vertices whose move damages the cut least (or helps it).
  int moves = 0;
  for (int round = 0; round < g.num_vertices(); ++round) {
    // Heaviest overweight part.
    int from = -1;
    double heaviest = max_weight;
    for (int p = 0; p < k; ++p) {
      if (weights[static_cast<std::size_t>(p)] > heaviest) {
        heaviest = weights[static_cast<std::size_t>(p)];
        from = p;
      }
    }
    if (from < 0) break;  // balanced
    // Lightest part as destination.
    const auto to = static_cast<int>(
        std::min_element(weights.begin(), weights.end()) - weights.begin());
    if (to == from) break;

    // Best vertex of `from` to move to `to`: smallest cut damage, and it must
    // not overshoot (leave `to` heavier than `from` was).
    VertexId best_v = -1;
    double best_score = -std::numeric_limits<double>::infinity();
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (part[static_cast<std::size_t>(v)] != from) continue;
      const double w = g.vertex_weight(v);
      if (weights[static_cast<std::size_t>(to)] + w >
          weights[static_cast<std::size_t>(from)] - w + 2 * w) {
        // Moving would just swap which side is overweight; allow only if the
        // destination stays within tolerance.
        if (weights[static_cast<std::size_t>(to)] + w > max_weight) continue;
      }
      const auto np = neighbor_parts(g, part, v);
      const double score = np.find(to) - np.find(from);
      if (score > best_score) {
        best_score = score;
        best_v = v;
      }
    }
    if (best_v < 0) break;
    const double w = g.vertex_weight(best_v);
    weights[static_cast<std::size_t>(from)] -= w;
    weights[static_cast<std::size_t>(to)] += w;
    part[static_cast<std::size_t>(best_v)] = to;
    ++moves;
  }
  return moves;
}

}  // namespace prema::part
