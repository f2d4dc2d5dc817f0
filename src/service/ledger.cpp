#include "service/ledger.hpp"

namespace prema::service {

void ProcService::record_arrival() {
  util::LockGuard g(mu_);
  ++arrivals_;
}

void ProcService::record_completion(double sojourn_s) {
  util::LockGuard g(mu_);
  ++completions_;
  hist_.record(sojourn_s);
}

std::uint64_t ProcService::arrivals() const {
  util::LockGuard g(mu_);
  return arrivals_;
}

std::uint64_t ProcService::completions() const {
  util::LockGuard g(mu_);
  return completions_;
}

LatencyHistogram ProcService::histogram() const {
  util::LockGuard g(mu_);
  return hist_;
}

ServiceTotals ServiceLedger::totals() const {
  ServiceTotals t;
  for (const ProcService& p : procs_) {
    t.arrivals += p.arrivals();
    t.completions += p.completions();
  }
  return t;
}

LatencyHistogram ServiceLedger::merged_histogram() const {
  LatencyHistogram h;
  for (const ProcService& p : procs_) h.merge(p.histogram());
  return h;
}

}  // namespace prema::service
