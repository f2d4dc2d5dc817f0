#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mesh/geometry.hpp"
#include "mesh/sizing.hpp"
#include "mesh/vec3.hpp"
#include "support/rng.hpp"

/// \file advancing_front.hpp
/// A 3-D advancing-front tetrahedral mesher of the *Delaunay-wall* family:
/// the point set is fixed up front (boundary lattice + sizing-driven interior
/// points, both deterministically jittered into general position), and the
/// front marches by taking a face and attaching the point chosen by the
/// empty-circumsphere criterion — i.e. the face's Delaunay neighbour. Because
/// every accepted tetrahedron belongs to the (unique) Delaunay
/// tetrahedralization of the point set, tets cannot overlap, opposite fronts
/// match exactly, and the march fills the convex domain completely.
///
/// This is the application class the paper evaluates (a 3-D advancing front
/// mesh generator); see mesh/subdomain.hpp for how subdomains of a larger
/// domain become PREMA mobile objects. Adaptivity enters through the sizing
/// field, which controls the interior point density.

namespace prema::mesh {

/// The produced mesh.
struct TetMesh {
  std::vector<Vec3> points;
  std::vector<Tet> tets;

  [[nodiscard]] double total_volume() const;
  [[nodiscard]] double min_quality() const;
};

struct AftStats {
  std::int64_t tets_created = 0;
  bool completed = false;  ///< front emptied
};

class AdvancingFront {
 public:
  /// `points`: every vertex the mesh may use (boundary first, then interior
  /// Steiner points). `boundary_faces`: a closed oriented surface over the
  /// boundary points whose normals (right-hand rule) point INTO the volume.
  /// Points must be in general position — use the jittered generators below.
  AdvancingFront(std::vector<Vec3> points, std::vector<Face> boundary_faces);
  ~AdvancingFront();

  /// March to completion (or the safety cap). The mesh is in mesh().
  AftStats run();

  [[nodiscard]] const TetMesh& mesh() const { return mesh_; }
  [[nodiscard]] TetMesh&& take_mesh() { return std::move(mesh_); }
  [[nodiscard]] std::size_t front_size() const;

 private:
  struct FrontFace {
    Face face;
    double area;
    bool alive = true;
  };

  [[nodiscard]] const Vec3& pt(PointId id) const {
    return mesh_.points[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] static std::uint64_t face_key(const Face& f);

  void push_front(const Face& f);
  void add_or_cancel(const Face& f);
  /// The Delaunay apex of `f`: the positive-side point whose circumsphere
  /// with the face is empty. Returns -1 if no positive-side point exists.
  [[nodiscard]] PointId delaunay_apex(const Face& f);
  bool commit_tet(const Face& f, PointId apex);

  std::vector<FrontFace> faces_;
  std::vector<std::size_t> heap_;
  std::unordered_map<std::uint64_t, std::size_t> on_front_;
  std::unordered_set<std::uint64_t> closed_;

  class SpatialIndexes;
  std::unique_ptr<SpatialIndexes> idx_;

  TetMesh mesh_;
  AftStats stats_;
  double domain_diag_ = 1.0;
};

/// Oriented boundary triangulation of the axis-aligned box [lo, hi] with
/// each edge split into `divisions` segments; normals point inward. Surface
/// points are jittered tangentially (deterministically, from `seed`) into
/// general position; corners stay exact, so the enclosed volume is exactly
/// the box.
void box_surface(const Vec3& lo, const Vec3& hi, int divisions,
                 std::vector<Vec3>& points, std::vector<Face>& faces,
                 std::uint64_t seed = 0x5EEDULL);

/// Sizing-driven interior Steiner points for the box (lo, hi): an adaptive
/// octree is subdivided until each leaf is smaller than the local target
/// size; each leaf emits its jittered centre. Deterministic in `seed`.
std::vector<Vec3> interior_points(const Vec3& lo, const Vec3& hi,
                                  const SizingField& sizing,
                                  std::uint64_t seed = 0x5EEDULL,
                                  int max_depth = 12);

}  // namespace prema::mesh
