#pragma once

#include <deque>
#include <vector>

#include "ilb/policies/stateless.hpp"

/// \file master.hpp
/// Centralized manager policy: rank 0 keeps an (eventually consistent) view
/// of every processor's load from hysteresis-throttled reports and matches
/// starved processors with the heaviest known donor. Included as the
/// classical centralized baseline the asynchronous policies are measured
/// against — it balances well at small scale and bottlenecks on the manager
/// as the machine grows.

namespace prema::ilb {

class MasterPolicy final : public StatelessPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "master"; }
  void init(PolicyContext& ctx) override;
  void on_poll(PolicyContext& ctx) override;
  void on_message(PolicyContext& ctx, ProcId from, PolicyTag tag,
                  util::ByteReader& body) override;
  void on_work_arrived(PolicyContext& ctx) override;

 private:
  static constexpr PolicyTag kReport = 1;
  static constexpr PolicyTag kNeedWork = 2;
  static constexpr PolicyTag kPush = 3;

  void report_if_changed(PolicyContext& ctx);
  void serve_pending(PolicyContext& ctx);  // manager side

  double last_reported_ = -1.0;
  bool needwork_sent_ = false;

  // Manager (rank 0) state.
  std::vector<double> loads_;
  std::deque<ProcId> pending_;
};

}  // namespace prema::ilb
