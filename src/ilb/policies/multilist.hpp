#pragma once

#include <deque>
#include <map>
#include <vector>

#include "ilb/policies/stateless.hpp"

/// \file multilist.hpp
/// Multi-list scheduling in the spirit of Wu's thesis (paper reference [23]):
/// processors are organized into groups, each with a leader that maintains
/// the group's scheduling list (member load levels) and pairs starved members
/// with loaded ones. Leaders in turn report aggregate group load to a global
/// coordinator that brokers cross-group transfers, so balancing cost scales
/// with the group size rather than the machine size.

namespace prema::ilb {

class MultiListPolicy final : public StatelessPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "multilist"; }
  void init(PolicyContext& ctx) override;
  void on_poll(PolicyContext& ctx) override;
  void on_message(PolicyContext& ctx, ProcId from, PolicyTag tag,
                  util::ByteReader& body) override;
  void on_work_arrived(PolicyContext& ctx) override;

  [[nodiscard]] ProcId leader() const { return leader_; }

 private:
  static constexpr PolicyTag kReport = 1;      ///< member -> leader {load}
  static constexpr PolicyTag kAsk = 2;         ///< member -> leader {load}
  static constexpr PolicyTag kPush = 3;        ///< leader -> donor {needy, load}
  static constexpr PolicyTag kGroupReport = 4; ///< leader -> coordinator {total}
  static constexpr PolicyTag kAskGlobal = 5;   ///< leader -> coordinator {needy}
  static constexpr PolicyTag kPushGroup = 6;   ///< coordinator -> donor leader {needy}

  void report_if_changed(PolicyContext& ctx);
  void leader_serve(PolicyContext& ctx);
  void leader_report_group(PolicyContext& ctx);
  void coordinator_serve(PolicyContext& ctx);
  void donate_to(PolicyContext& ctx, ProcId needy, double needy_load);

  ProcId leader_ = 0;
  double last_reported_ = -1.0;
  bool asked_ = false;

  // Leader state. Ordered maps: serve/report scans pick donors and targets
  // by iterating these, so hash order would leak into migration decisions.
  std::map<ProcId, double> member_load_;
  std::deque<ProcId> pending_;
  double last_group_reported_ = -1.0;
  bool asked_global_ = false;

  // Coordinator (rank 0) state.
  std::map<ProcId, double> group_load_;             ///< by leader rank
  std::deque<ProcId> pending_groups_;               ///< leaders with starved members
};

}  // namespace prema::ilb
