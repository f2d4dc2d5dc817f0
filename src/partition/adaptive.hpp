#pragma once

#include "partition/multilevel.hpp"

/// \file adaptive.hpp
/// The Unified Repartitioning Algorithm (Schloegel-Karypis-Kumar; paper
/// §3.1): when a partitioned workload has drifted out of balance, compute
/// both a scratch-remap candidate (fresh partition, labels remapped to
/// minimize data movement) and a diffusive candidate (tweak the existing
/// partition), score each with |Ecut| + alpha * |Vmove|, and keep the better.
/// `alpha` is the application-supplied Relative Cost Factor trading
/// communication cost against redistribution cost.

namespace prema::part {

struct AdaptiveOptions {
  int k = 2;
  /// Relative Cost Factor (alpha) in |Ecut| + alpha * |Vmove|.
  double alpha = 1.0;
  std::uint64_t seed = 0x51CEDULL;
};

struct AdaptiveResult {
  graph::Partition partition;
  double cost = 0.0;            ///< unified cost of the winner
  double edge_cut = 0.0;
  double migration = 0.0;       ///< |Vmove|
  bool chose_scratch_remap = false;
};

/// Repartition `g` given the current assignment `old_part`.
AdaptiveResult adaptive_repartition(const graph::CsrGraph& g,
                                    const graph::Partition& old_part,
                                    const AdaptiveOptions& opts);

/// Remap part labels of `fresh` to maximize weight overlap with `old_part`
/// (greedy assignment on the k x k overlap matrix) — the "remap" in
/// scratch-remap. Returns the relabelled partition.
graph::Partition remap_labels(const graph::CsrGraph& g,
                              const graph::Partition& old_part,
                              const graph::Partition& fresh, int k);

}  // namespace prema::part
