#pragma once

#include <unordered_map>
#include <vector>

#include "ilb/policies/stateless.hpp"

/// \file diffusion.hpp
/// Cybenko-style diffusion (paper reference [7]): each processor exchanges
/// load levels with a small fixed neighbourhood (hypercube when nprocs is a
/// power of two, ring otherwise) and pushes a fraction of any load gap to
/// lighter neighbours. Announcements are hysteresis-throttled so the protocol
/// quiesces once loads stop changing.

namespace prema::ilb {

class DiffusionPolicy final : public StatelessPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "diffusion"; }
  void init(PolicyContext& ctx) override;
  void on_poll(PolicyContext& ctx) override;
  void on_message(PolicyContext& ctx, ProcId from, PolicyTag tag,
                  util::ByteReader& body) override;

  [[nodiscard]] const std::vector<ProcId>& neighbors() const { return neighbors_; }

 private:
  static constexpr PolicyTag kLoad = 1;

  void announce_if_changed(PolicyContext& ctx);
  void push_towards(PolicyContext& ctx, ProcId neighbor);

  std::vector<ProcId> neighbors_;
  std::unordered_map<ProcId, double> neighbor_load_;
  /// Explicit first-announcement flag: the load itself is not a usable
  /// sentinel, since accumulated-weight arithmetic can legitimately settle
  /// at (or drift near) zero.
  bool announced_ = false;
  double last_announced_ = 0.0;
};

}  // namespace prema::ilb
