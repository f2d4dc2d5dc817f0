#include "partition/adaptive.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace prema::part {

using graph::CsrGraph;
using graph::Partition;
using graph::VertexId;

Partition remap_labels(const CsrGraph& g, const Partition& old_part,
                       const Partition& fresh, int k) {
  // overlap[new][old] = vertex weight assigned to `new` in fresh and `old`
  // in old_part.
  std::vector<double> overlap(static_cast<std::size_t>(k) * k, 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nf = fresh[static_cast<std::size_t>(v)];
    const auto no = old_part[static_cast<std::size_t>(v)];
    overlap[static_cast<std::size_t>(nf) * k + no] += g.vertex_weight(v);
  }
  // Greedy max-overlap assignment new-label -> old-label.
  struct Cell {
    double w;
    int nf, no;
  };
  std::vector<Cell> cells;
  cells.reserve(overlap.size());
  for (int nf = 0; nf < k; ++nf) {
    for (int no = 0; no < k; ++no) {
      cells.push_back({overlap[static_cast<std::size_t>(nf) * k + no], nf, no});
    }
  }
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    if (a.w != b.w) return a.w > b.w;
    if (a.nf != b.nf) return a.nf < b.nf;
    return a.no < b.no;
  });
  std::vector<int> relabel(static_cast<std::size_t>(k), -1);
  std::vector<char> taken(static_cast<std::size_t>(k), 0);
  int assigned = 0;
  for (const auto& c : cells) {
    if (assigned == k) break;
    if (relabel[static_cast<std::size_t>(c.nf)] >= 0 ||
        taken[static_cast<std::size_t>(c.no)]) {
      continue;
    }
    relabel[static_cast<std::size_t>(c.nf)] = c.no;
    taken[static_cast<std::size_t>(c.no)] = 1;
    ++assigned;
  }
  for (int nf = 0; nf < k; ++nf) {
    if (relabel[static_cast<std::size_t>(nf)] < 0) {
      for (int no = 0; no < k; ++no) {
        if (!taken[static_cast<std::size_t>(no)]) {
          relabel[static_cast<std::size_t>(nf)] = no;
          taken[static_cast<std::size_t>(no)] = 1;
          break;
        }
      }
    }
  }
  Partition out(fresh.size());
  for (std::size_t v = 0; v < fresh.size(); ++v) {
    out[v] = relabel[static_cast<std::size_t>(fresh[v])];
  }
  return out;
}

AdaptiveResult adaptive_repartition(const CsrGraph& g, const Partition& old_part,
                                    const AdaptiveOptions& opts) {
  PREMA_CHECK(old_part.size() == static_cast<std::size_t>(g.num_vertices()));

  // Candidate 1: scratch-remap. Partition from scratch, then relabel to sit
  // as close to the old assignment as possible.
  PartitionOptions popts;
  popts.k = opts.k;
  popts.seed = opts.seed;
  Partition scratch = remap_labels(g, old_part, multilevel_kway(g, popts), opts.k);

  // Candidate 2: diffusive. Start from the old partition, push weight out of
  // overloaded parts, then refine with alpha-weighted gains anchored at the
  // old assignment (so needless movement is penalized).
  Partition diffusive = old_part;
  rebalance_kway(g, diffusive, opts.k);
  refine_kway(g, diffusive, opts.k, &old_part, opts.alpha);

  const double cost_scratch =
      graph::unified_cost(g, old_part, scratch, opts.alpha);
  const double cost_diffusive =
      graph::unified_cost(g, old_part, diffusive, opts.alpha);
  const double bal_scratch = graph::imbalance(g, scratch, opts.k);
  const double bal_diffusive = graph::imbalance(g, diffusive, opts.k);

  // Prefer the cheaper candidate among those meeting the balance tolerance;
  // if neither is balanced, prefer the more balanced one.
  const double tol = kImbalanceTolerance + 1e-9;
  bool pick_scratch;
  if (bal_scratch <= tol && bal_diffusive <= tol) {
    pick_scratch = cost_scratch < cost_diffusive;
  } else if (bal_scratch <= tol) {
    pick_scratch = true;
  } else if (bal_diffusive <= tol) {
    pick_scratch = false;
  } else {
    pick_scratch = bal_scratch < bal_diffusive;
  }

  AdaptiveResult res;
  res.chose_scratch_remap = pick_scratch;
  res.partition = pick_scratch ? std::move(scratch) : std::move(diffusive);
  res.edge_cut = graph::edge_cut(g, res.partition);
  res.migration = graph::migration_volume(g, old_part, res.partition);
  res.cost = res.edge_cut + opts.alpha * res.migration;
  return res;
}

}  // namespace prema::part
