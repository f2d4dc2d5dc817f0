#pragma once

#include <cstdint>

#include "mesh/advancing_front.hpp"
#include "mol/mobile_object.hpp"

/// \file subdomain.hpp
/// The parallel mesh-generation application (paper §5): the domain is an
/// axis-aligned box cut into a grid of box subdomains, each registered with
/// the runtime as a mobile object. A refinement phase sends every subdomain
/// a "refine" message carrying the current crack-tip position; the handler
/// runs the real advancing-front mesher over the subdomain at the sizing the
/// crack field induces there and charges compute proportional to the
/// elements it actually created. Subdomains near the tip explode in cost —
/// unpredictably, as the tip moves between phases — which is exactly the
/// highly adaptive, irregular behaviour the balancers are judged on.

namespace prema::mesh {

/// One box subdomain of the global meshing problem, migratable between
/// processors with its accumulated statistics.
class MeshSubdomain : public mol::MobileObject {
 public:
  static constexpr std::uint32_t kTypeId = 7;

  MeshSubdomain(Vec3 lo, Vec3 hi, int boundary_divisions, std::uint64_t seed);

  /// Re-mesh this subdomain under the given sizing field (real work) and
  /// return the step's stats. Accumulates totals.
  AftStats refine(const SizingField& sizing);

  [[nodiscard]] std::uint32_t type_id() const override { return kTypeId; }
  void serialize(util::ByteWriter& w) const override;
  static std::unique_ptr<mol::MobileObject> deserialize(util::ByteReader& r);

  [[nodiscard]] std::int64_t total_tets() const { return total_tets_; }
  [[nodiscard]] int phases_done() const { return phases_done_; }
  /// The last completed mesh (kept for inspection; not serialized).
  [[nodiscard]] const TetMesh& last_mesh() const { return last_mesh_; }

 private:
  Vec3 lo_, hi_;
  int divisions_;
  std::uint64_t seed_;
  std::int64_t total_tets_ = 0;
  int phases_done_ = 0;
  TetMesh last_mesh_;
};

/// Crack-walk scenario shared by the examples and the mesh benchmark: the
/// crack tip moves through the unit-cube domain along a deterministic
/// pseudo-random walk, one step per phase.
Vec3 crack_tip_position(int phase, std::uint64_t seed);

/// Compute cost (Mflop) the emulated processor is charged for a refinement
/// that created `tets` elements — the paper-era constant of a few tens of
/// kflop of mesh generation work per element.
double refine_cost_mflop(std::int64_t tets);

}  // namespace prema::mesh
