#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "mesh/vec3.hpp"

/// \file geometry.hpp
/// Geometric predicates and measures used by the advancing-front
/// tetrahedralizer. Double precision with epsilon tolerances: the domains we
/// mesh (axis-aligned boxes with smooth sizing) stay far away from the
/// degeneracies that demand exact arithmetic.

namespace prema::mesh {

using PointId = std::int32_t;

/// A tetrahedron as 4 point indices; (t1, t2, t3) seen from outside t0 form
/// a counter-clockwise triangle (positive signed volume).
struct Tet {
  std::array<PointId, 4> v;
};

/// An oriented triangle face of the advancing front: the region still to be
/// meshed lies on the side its normal points into.
struct Face {
  std::array<PointId, 3> v;
};

/// Signed volume of the tetrahedron (a, b, c, d): positive when d lies on
/// the side of triangle (a,b,c) that its counter-clockwise normal points to.
double signed_volume(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d);

/// Area of triangle (a, b, c).
double triangle_area(const Vec3& a, const Vec3& b, const Vec3& c);

/// Unit normal of triangle (a, b, c) by the right-hand rule.
Vec3 triangle_normal(const Vec3& a, const Vec3& b, const Vec3& c);

/// Centroid of triangle (a, b, c).
Vec3 triangle_centroid(const Vec3& a, const Vec3& b, const Vec3& c);

/// Tetrahedron quality in (0, 1]: normalized ratio of volume to the cube of
/// the RMS edge length (1 for the regular tet, -> 0 for slivers). Negative
/// volume yields a negative quality.
double tet_quality(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d);

/// Circumcenter and squared circumradius of tetrahedron (a, b, c, d).
/// Returns false for (near-)degenerate tets.
bool tet_circumsphere(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d,
                      Vec3& center, double& radius2);

/// True if p is strictly inside the tetrahedron (a, b, c, d) given the tet
/// has positive orientation.
bool point_in_tet(const Vec3& p, const Vec3& a, const Vec3& b, const Vec3& c,
                  const Vec3& d, double eps = 1e-12);

/// True if segment (p, q) properly intersects triangle (a, b, c) —
/// endpoints touching the triangle's plane within eps do not count.
bool segment_intersects_triangle(const Vec3& p, const Vec3& q, const Vec3& a,
                                 const Vec3& b, const Vec3& c,
                                 double eps = 1e-12);

/// True if the two triangles are (nearly) coplanar AND their interiors
/// overlap with positive area. Triangles that merely share an edge or a
/// vertex do not count. The advancing front uses this to reject tets whose
/// side face would lie on top of an existing front face with a different
/// triangulation (the classic boundary-plane leak).
bool coplanar_triangles_overlap(const Vec3& a1, const Vec3& b1, const Vec3& c1,
                                const Vec3& a2, const Vec3& b2, const Vec3& c2);

}  // namespace prema::mesh
