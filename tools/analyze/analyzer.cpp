#include <chrono>
#include <optional>

#include "analyze/passes.hpp"

namespace prema::analyze {

const std::vector<PassInfo>& all_passes() {
  static const std::vector<PassInfo> passes = {
      {"conventions", pass_conventions},
      {"lock-order", pass_lock_order},
      {"serialization", pass_serialization},
      {"lock-flow", pass_lock_flow},
      {"protocol-fsm", pass_protocol_fsm},
      {"sim-purity", pass_sim_purity},
      {"atomics", pass_atomics},
      {"mixed-access", pass_mixed_access},
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
  // Build the whole-program index once and share it: the passes would
  // otherwise each build their own.
  Options shared = opts;
  std::optional<Index> idx;
  const auto index_t0 = Clock::now();
  shared.index = &pass_index(tree, opts, idx);
  if (timings != nullptr) timings->index_ms = ms_since(index_t0);
  for (const PassInfo* p : selected) {
    const auto t0 = Clock::now();
    p->fn(tree, shared, out);
    if (timings != nullptr) timings->pass_ms.emplace_back(p->name, ms_since(t0));
  }
}

}  // namespace prema::analyze
