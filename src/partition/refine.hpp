#pragma once

#include "graph/partition_metrics.hpp"
#include "support/rng.hpp"

/// \file refine.hpp
/// Partition refinement passes: greedy boundary Kernighan-Lin/Fiduccia-
/// Mattheyses-style moves. Used during uncoarsening (multilevel refinement,
/// paper §3.1 step 3) and as the diffusive half of adaptive repartitioning.

namespace prema::part {

/// Maximum allowed max-part/mean-part weight ratio, for every partition the
/// partitioner and the repartitioner produce.
inline constexpr double kImbalanceTolerance = 1.05;

/// Greedy k-way boundary refinement of `part` in place: repeatedly move
/// boundary vertices to the adjacent part with the largest positive gain
/// (reduction in cut minus alpha-weighted migration against `anchor`),
/// subject to the balance tolerance. `alpha` weighs migration cost: moves
/// away from `anchor` (if provided) pay alpha * vertex_weight, which the
/// unified repartitioner uses. Returns the number of moves made.
int refine_kway(const graph::CsrGraph& g, graph::Partition& part, int k,
                const graph::Partition* anchor = nullptr, double alpha = 0.0);

/// Balance-only pass: move vertices out of overweight parts into underweight
/// ones (cheapest cut damage first) until the tolerance holds or no move
/// helps. Returns moves made.
int rebalance_kway(const graph::CsrGraph& g, graph::Partition& part, int k);

}  // namespace prema::part
