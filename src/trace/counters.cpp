#include "trace/counters.hpp"

#include <algorithm>
#include <cmath>

namespace prema::trace {

void Histogram::add(double v) {
  if (v < 0.0) v = 0.0;
  if (n_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++n_;
  sum_ += v;
  std::size_t i = 0;
  if (v >= 1.0) {
    i = static_cast<std::size_t>(std::ceil(std::log2(v + 1e-12))) + 1;
    if (i >= kBuckets) i = kBuckets - 1;
  }
  ++buckets_[i];
}

double Histogram::bucket_edge(std::size_t i) {
  return i == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
}

double Histogram::approx_quantile(double q) const {
  if (n_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(n_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > target) return std::min(bucket_edge(i), max_);
  }
  return max_;
}

Histogram& Histogram::operator+=(const Histogram& other) {
  if (other.n_ == 0) return *this;
  if (n_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  n_ += other.n_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  return *this;
}

ProcCounters& ProcCounters::operator+=(const ProcCounters& other) {
  work_units += other.work_units;
  partitions += other.partitions;
  msgs_sent += other.msgs_sent;
  msgs_received += other.msgs_received;
  bytes_sent += other.bytes_sent;
  bytes_received += other.bytes_received;
  migrations_out += other.migrations_out;
  migrations_in += other.migrations_in;
  policy_decisions += other.policy_decisions;
  policy_wire_msgs += other.policy_wire_msgs;
  poll_wakeups += other.poll_wakeups;
  term_waves += other.term_waves;
  faults_injected += other.faults_injected;
  retransmits += other.retransmits;
  acks_sent += other.acks_sent;
  dup_drops += other.dup_drops;
  corrupt_drops += other.corrupt_drops;
  service_arrivals += other.service_arrivals;
  service_completions += other.service_completions;
  service_epochs += other.service_epochs;
  sfc_cuts += other.sfc_cuts;
  work_seconds += other.work_seconds;
  partition_seconds += other.partition_seconds;
  msg_size += other.msg_size;
  migrations_per_round += other.migrations_per_round;
  return *this;
}

}  // namespace prema::trace
