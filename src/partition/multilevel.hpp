#pragma once

#include "graph/partition_metrics.hpp"
#include "partition/refine.hpp"
#include "support/rng.hpp"

/// \file multilevel.hpp
/// Serial multilevel k-way partitioner in the METIS mould: heavy-edge
/// matching coarsening, graph-growing recursive bisection on the coarsest
/// graph, and greedy boundary refinement during uncoarsening. Stands in for
/// METIS as the paper's representative repartitioning substrate (§3.1).

namespace prema::part {

struct PartitionOptions {
  int k = 2;
  std::uint64_t seed = 0x9E3779B9ULL;
};

/// Partition `g` into `opts.k` parts. Handles edgeless graphs (degenerates
/// to LPT number partitioning) and k = 1.
graph::Partition multilevel_kway(const graph::CsrGraph& g,
                                 const PartitionOptions& opts);

/// Greedy LPT (longest processing time) number partitioning on vertex
/// weights — the initial partition for graphs without edges and the
/// tie-breaker substrate for tiny graphs.
graph::Partition lpt_partition(const graph::CsrGraph& g, int k);

/// Modeled CPU cost (seconds) of running the partitioner on `g` on the
/// paper-era hardware; charged as "Partition Calculation Time" by the
/// stop-and-repartition driver.
double modeled_partition_seconds(const graph::CsrGraph& g, int k,
                                 double mflops = 333.0);

}  // namespace prema::part
