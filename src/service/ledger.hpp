#pragma once

#include <cstdint>
#include <vector>

#include "service/latency.hpp"
#include "support/thread_annotations.hpp"

/// \file ledger.hpp
/// The service-mode latency ledger: one ProcService slab per processor,
/// recording arrival and completion counts and sojourn latencies (into the
/// fixed-bucket LatencyHistogram). Per-epoch node load is not kept here: the
/// `service-epoch` trace event records it when tracing is on.
///
/// Concurrency model: each slab carries its own `util::Mutex mu_` — the
/// `service_mu` rank of the lock hierarchy (see DESIGN.md and
/// tools/analyze/lock_hierarchy.txt). Recording methods take it briefly and
/// call nothing that locks, so `service_mu` sits near the leaf of the order:
/// below the node state and ledger locks that are held while handlers run,
/// above only the trace/log leaves. On the sim backend the lock is
/// uncontended (single-threaded engine); on the thread backend it serializes
/// a node's worker thread against the report reader at run end.
///
/// Aggregation (`totals`, `merged_histogram`) walks the slabs in fixed rank
/// order; combined with the histogram's integer merge this makes the report
/// independent of execution interleaving, so determinism tests can compare
/// reports byte for byte.

namespace prema::service {

/// Aggregated counters across all slabs.
struct ServiceTotals {
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
};

/// Per-processor service statistics slab.
class ProcService {
 public:
  void record_arrival();
  void record_completion(double sojourn_s);

  [[nodiscard]] std::uint64_t arrivals() const;
  [[nodiscard]] std::uint64_t completions() const;
  [[nodiscard]] LatencyHistogram histogram() const;

 private:
  mutable util::Mutex mu_;
  std::uint64_t arrivals_ PREMA_GUARDED_BY(mu_) = 0;
  std::uint64_t completions_ PREMA_GUARDED_BY(mu_) = 0;
  LatencyHistogram hist_ PREMA_GUARDED_BY(mu_);
};

/// The machine-wide ledger: a fixed array of slabs, one per processor,
/// allocated before the run starts so recording never reallocates.
class ServiceLedger {
 public:
  explicit ServiceLedger(int nprocs) : procs_(static_cast<std::size_t>(nprocs)) {}

  [[nodiscard]] ProcService& at(int p) { return procs_[static_cast<std::size_t>(p)]; }
  [[nodiscard]] const ProcService& at(int p) const {
    return procs_[static_cast<std::size_t>(p)];
  }

  /// Sum of per-slab counters, walked in rank order.
  [[nodiscard]] ServiceTotals totals() const;

  /// All slabs' histograms merged in rank order (deterministic by
  /// construction — integer merge is order-independent anyway).
  [[nodiscard]] LatencyHistogram merged_histogram() const;

 private:
  std::vector<ProcService> procs_;
};

}  // namespace prema::service
