#include <chrono>
#include <optional>

#include "analyze/passes.hpp"

namespace prema::analyze {

const std::vector<PassInfo>& all_passes() {
  static const std::vector<PassInfo> passes = {
      {"conventions", pass_conventions, /*needs_index=*/false},
      {"lock-order", pass_lock_order, false},
      {"serialization", pass_serialization, false},
      {"lock-flow", pass_lock_flow, /*needs_index=*/true},
      {"protocol-fsm", pass_protocol_fsm, true},
      {"sim-purity", pass_sim_purity, true},
      {"atomics", pass_atomics, true},
      {"mixed-access", pass_mixed_access, true},
  };
  return passes;
}

void run_all_passes(const Tree& tree, const Options& opts, Findings& out,
                    const std::set<std::string>& only, PassTimings* timings) {
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };
  std::vector<const PassInfo*> selected;
  for (const PassInfo& p : all_passes()) {
    if (only.empty() || only.count(p.name) != 0) selected.push_back(&p);
  }
  // Build the whole-program index once and share it: the index passes would
  // otherwise each build their own.
  Options shared = opts;
  std::optional<Index> idx;
  for (const PassInfo* p : selected) {
    if (p->needs_index && shared.index == nullptr) {
      const auto t0 = Clock::now();
      shared.index = &idx.emplace(build_index(tree));
      if (timings != nullptr) timings->index_ms = ms_since(t0);
    }
  }
  for (const PassInfo* p : selected) {
    const auto t0 = Clock::now();
    p->fn(tree, shared, out);
    if (timings != nullptr) timings->pass_ms.emplace_back(p->name, ms_since(t0));
  }
}

}  // namespace prema::analyze
