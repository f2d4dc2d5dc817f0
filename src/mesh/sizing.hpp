#pragma once

#include <memory>

#include "mesh/vec3.hpp"

/// \file sizing.hpp
/// Target element-size fields driving the advancing front. Adaptivity enters
/// the mesher entirely through these: a crack-tip field makes the subdomains
/// near the (moving) tip explode in element count — the paper's motivating
/// multi-scale scenario (§1).

namespace prema::mesh {

/// h(x): desired local edge length at point x. Implementations must be
/// smooth enough that neighbouring elements differ by a bounded factor.
class SizingField {
 public:
  virtual ~SizingField() = default;
  [[nodiscard]] virtual double size_at(const Vec3& p) const = 0;
};

/// Constant size everywhere.
class UniformSizing final : public SizingField {
 public:
  explicit UniformSizing(double h) : h_(h) {}
  [[nodiscard]] double size_at(const Vec3&) const override { return h_; }

 private:
  double h_;
};

/// Fine resolution near a point (the crack tip), graded back to the coarse
/// background size. Inside the core (core_fraction * radius around the tip)
/// the size is pinned to h_min — the fully refined process zone — and grades
/// linearly up to h_max at the influence radius.
class CrackTipSizing final : public SizingField {
 public:
  CrackTipSizing(Vec3 tip, double h_min, double h_max, double radius,
                 double core_fraction = 0.4)
      : tip_(tip),
        h_min_(h_min),
        h_max_(h_max),
        radius_(radius),
        core_(core_fraction) {}

  [[nodiscard]] double size_at(const Vec3& p) const override {
    const double d = distance(p, tip_);
    if (d >= radius_) return h_max_;
    const double t = d / radius_;
    if (t <= core_) return h_min_;
    return h_min_ + (h_max_ - h_min_) * (t - core_) / (1.0 - core_);
  }

 private:
  Vec3 tip_;
  double h_min_;
  double h_max_;
  double radius_;
  double core_;
};

}  // namespace prema::mesh
