#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

/// \file counters.hpp
/// Lightweight per-processor counters and log2-bucketed histograms kept by
/// the trace sinks. These survive ring-buffer overflow (events may be
/// dropped; counts never are), so the summary exporter can report exact
/// totals — message counts and sizes, work units, migrations per balancing
/// round — alongside whatever window of events the buffers retained. Which
/// field an event bumps is part of its row in the kind table (trace.hpp).

namespace prema::trace {

/// Histogram over power-of-two buckets: bucket i counts values in
/// [2^(i-1), 2^i) with bucket 0 taking everything below 1. Good enough for
/// message sizes (bytes) and objects per round; exact mean via sum/n.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void add(double v);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? sum_ / static_cast<double>(n_) : 0.0; }
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }

  /// Upper edge of bucket i (2^i; bucket 0 covers [0, 1)).
  [[nodiscard]] static double bucket_edge(std::size_t i);

  /// Approximate quantile (q in [0,1]) from the bucket counts: the upper
  /// edge of the bucket containing the q-th value.
  [[nodiscard]] double approx_quantile(double q) const;

  /// Accumulate another histogram into this one (per-proc -> machine-wide).
  Histogram& operator+=(const Histogram& other);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact per-processor event counts plus the distributions worth keeping.
struct ProcCounters {
  std::uint64_t work_units = 0;
  std::uint64_t partitions = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t migrations_out = 0;
  std::uint64_t migrations_in = 0;
  std::uint64_t policy_decisions = 0;
  std::uint64_t policy_wire_msgs = 0;
  std::uint64_t poll_wakeups = 0;
  std::uint64_t term_waves = 0;
  // Reliability / fault-injection counters (all zero on a fault-free run):
  std::uint64_t faults_injected = 0;   ///< wire-side drop/dup/delay/reorder/corrupt
  std::uint64_t retransmits = 0;       ///< copies resent after a timeout
  std::uint64_t acks_sent = 0;         ///< bare cumulative acks sent
  std::uint64_t dup_drops = 0;         ///< duplicate copies absorbed on receive
  std::uint64_t corrupt_drops = 0;     ///< checksum-mismatched copies discarded
  // Service mode (all zero on a run-to-quiescence run):
  std::uint64_t service_arrivals = 0;     ///< open-loop requests injected
  std::uint64_t service_completions = 0;  ///< request handlers finished
  std::uint64_t service_epochs = 0;       ///< epoch cadence ticks
  // Topology policies (all zero under scalar-only policies):
  std::uint64_t sfc_cuts = 0;         ///< sfc coordinator curve recuts
  std::uint64_t cluster_merges = 0;   ///< cluster co-migration batches

  double work_seconds = 0.0;       ///< summed work-unit span durations
  double partition_seconds = 0.0;  ///< summed partition span durations

  Histogram msg_size;               ///< bytes per sent message
  Histogram migrations_per_round;   ///< objects migrated per balancing round

  ProcCounters& operator+=(const ProcCounters& other);
};

}  // namespace prema::trace
