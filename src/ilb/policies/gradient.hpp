#pragma once

#include <unordered_map>
#include <vector>

#include "ilb/policies/stateless.hpp"

/// \file gradient.hpp
/// Gradient-model balancing (Lin & Keller): every processor maintains a
/// *proximity* — its hop distance, over a ring neighbourhood, to the nearest
/// underloaded processor (0 if it is itself underloaded). Proximities
/// propagate between neighbours on change; overloaded processors ship work to
/// the neighbour whose proximity points downhill toward starvation.

namespace prema::ilb {

class GradientPolicy final : public StatelessPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "gradient"; }
  void init(PolicyContext& ctx) override;
  void on_poll(PolicyContext& ctx) override;
  void on_message(PolicyContext& ctx, ProcId from, PolicyTag tag,
                  util::ByteReader& body) override;
  void on_work_arrived(PolicyContext& ctx) override;

  [[nodiscard]] std::uint32_t proximity() const { return proximity_; }

 private:
  static constexpr PolicyTag kProximity = 1;
  /// Proximity value meaning "no underloaded processor known".
  [[nodiscard]] std::uint32_t infinity(const PolicyContext& ctx) const;

  void refresh(PolicyContext& ctx);
  void maybe_push(PolicyContext& ctx);

  std::vector<ProcId> neighbors_;
  std::unordered_map<ProcId, std::uint32_t> neighbor_prox_;
  std::uint32_t proximity_ = 0;
  bool announced_once_ = false;
  double last_announce_ = -1e18;
};

}  // namespace prema::ilb
