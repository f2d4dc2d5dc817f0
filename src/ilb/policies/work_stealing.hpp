#pragma once

#include "ilb/policies/stateless.hpp"

/// \file work_stealing.hpp
/// The Work Stealing policy the paper's evaluation uses (§4): processors are
/// paired with a partner; a processor whose load falls below the low
/// water-mark sends the partner a request, the partner either uninstalls and
/// migrates some mobile objects (a grant) or answers with a negative
/// acknowledgement, and on denial the requester picks another partner. After
/// enough consecutive denials the requester goes passive until new work
/// arrives, which is what lets the machine reach quiescence when the global
/// work pool is exhausted.

namespace prema::ilb {

struct WorkStealingParams {
  /// Cap on objects per grant (the paper notes coarse-grained applications
  /// may migrate a single object at a time).
  std::size_t max_objects_per_grant = SIZE_MAX;
};

class WorkStealingPolicy final : public StatelessPolicy {
 public:
  /// Consecutive denials before the requester goes dormant (paper: the
  /// requester "may choose another partner" on denial — retries are
  /// immediate until this limit).
  static constexpr int kPassiveAfterDenials = 16;

  explicit WorkStealingPolicy(WorkStealingParams params = {}) : params_(params) {}

  [[nodiscard]] std::string_view name() const override { return "work_stealing"; }
  void init(PolicyContext& ctx) override;
  void on_poll(PolicyContext& ctx) override;
  void on_message(PolicyContext& ctx, ProcId from, PolicyTag tag,
                  util::ByteReader& body) override;
  void on_work_arrived(PolicyContext& ctx) override;

  struct Stats {
    std::uint64_t went_passive = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr PolicyTag kRequest = 1;
  static constexpr PolicyTag kDeny = 2;
  static constexpr PolicyTag kGrant = 3;

  void maybe_request(PolicyContext& ctx);
  void handle_request(PolicyContext& ctx, ProcId from, double their_load);

  WorkStealingParams params_;
  Stats stats_;
  ProcId partner_ = kNoProc;
  bool outstanding_ = false;  ///< a request is in flight
  bool passive_ = false;      ///< dormant; woken by new work or a slow retry
  int consecutive_denials_ = 0;
  int dormant_rounds_ = 0;
  double dormant_until_ = 0.0;  ///< earliest time a poll may end dormancy
};

}  // namespace prema::ilb
