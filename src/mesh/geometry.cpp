#include "mesh/geometry.hpp"

#include <algorithm>
#include <cmath>

namespace prema::mesh {

double signed_volume(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d) {
  return dot(cross(b - a, c - a), d - a) / 6.0;
}

double triangle_area(const Vec3& a, const Vec3& b, const Vec3& c) {
  return 0.5 * norm(cross(b - a, c - a));
}

Vec3 triangle_normal(const Vec3& a, const Vec3& b, const Vec3& c) {
  return normalized(cross(b - a, c - a));
}

Vec3 triangle_centroid(const Vec3& a, const Vec3& b, const Vec3& c) {
  return (a + b + c) / 3.0;
}

double tet_quality(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d) {
  const double vol = signed_volume(a, b, c, d);
  const double e2 = norm2(b - a) + norm2(c - a) + norm2(d - a) + norm2(c - b) +
                    norm2(d - b) + norm2(d - c);
  if (e2 <= 0.0) return 0.0;
  const double rms = std::sqrt(e2 / 6.0);
  // Regular tet: vol = edge^3 / (6 * sqrt(2)); normalize so it scores 1.
  return vol * 6.0 * std::sqrt(2.0) / (rms * rms * rms);
}

bool tet_circumsphere(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& d,
                      Vec3& center, double& radius2) {
  // Solve 2 * (p_i - a) . x = |p_i|^2 - |a|^2 for the circumcenter.
  const Vec3 ab = b - a, ac = c - a, ad = d - a;
  const double m[3][3] = {{ab.x, ab.y, ab.z}, {ac.x, ac.y, ac.z}, {ad.x, ad.y, ad.z}};
  const double rhs[3] = {0.5 * norm2(ab), 0.5 * norm2(ac), 0.5 * norm2(ad)};
  const double det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1]) -
                     m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0]) +
                     m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
  const double scale = std::max({norm2(ab), norm2(ac), norm2(ad)});
  if (std::abs(det) < 1e-12 * scale * std::sqrt(scale)) return false;
  // Cramer's rule.
  auto det3 = [](const double mm[3][3]) {
    return mm[0][0] * (mm[1][1] * mm[2][2] - mm[1][2] * mm[2][1]) -
           mm[0][1] * (mm[1][0] * mm[2][2] - mm[1][2] * mm[2][0]) +
           mm[0][2] * (mm[1][0] * mm[2][1] - mm[1][1] * mm[2][0]);
  };
  double mx[3][3], my[3][3], mz[3][3];
  for (int i = 0; i < 3; ++i) {
    mx[i][0] = rhs[i];
    mx[i][1] = m[i][1];
    mx[i][2] = m[i][2];
    my[i][0] = m[i][0];
    my[i][1] = rhs[i];
    my[i][2] = m[i][2];
    mz[i][0] = m[i][0];
    mz[i][1] = m[i][1];
    mz[i][2] = rhs[i];
  }
  const Vec3 rel{det3(mx) / det, det3(my) / det, det3(mz) / det};
  center = a + rel;
  radius2 = norm2(rel);
  return true;
}

bool point_in_tet(const Vec3& p, const Vec3& a, const Vec3& b, const Vec3& c,
                  const Vec3& d, double eps) {
  return signed_volume(a, b, c, p) > eps && signed_volume(a, b, p, d) > eps &&
         signed_volume(a, p, c, d) > eps && signed_volume(p, b, c, d) > eps;
}

bool segment_intersects_triangle(const Vec3& p, const Vec3& q, const Vec3& a,
                                 const Vec3& b, const Vec3& c, double eps) {
  // Moller-Trumbore with strict interior tests.
  const Vec3 dir = q - p;
  const Vec3 e1 = b - a, e2 = c - a;
  const Vec3 pv = cross(dir, e2);
  const double det = dot(e1, pv);
  if (std::abs(det) < eps) return false;  // parallel
  const double inv = 1.0 / det;
  const Vec3 tv = p - a;
  const double u = dot(tv, pv) * inv;
  if (u <= eps || u >= 1.0 - eps) return false;
  const Vec3 qv = cross(tv, e1);
  const double v = dot(dir, qv) * inv;
  if (v <= eps || u + v >= 1.0 - eps) return false;
  const double t = dot(e2, qv) * inv;
  return t > eps && t < 1.0 - eps;
}

bool coplanar_triangles_overlap(const Vec3& a1, const Vec3& b1, const Vec3& c1,
                                const Vec3& a2, const Vec3& b2, const Vec3& c2) {
  const Vec3 n = cross(b1 - a1, c1 - a1);
  const double nlen = norm(n);
  if (nlen <= 0.0) return false;  // degenerate first triangle
  const Vec3 un = n / nlen;
  const double scale = std::sqrt(nlen);  // ~ edge length
  const double plane_eps = 1e-6 * scale;
  for (const Vec3* p : {&a2, &b2, &c2}) {
    if (std::abs(dot(*p - a1, un)) > plane_eps) return false;  // not coplanar
  }
  // Project both onto an in-plane orthonormal basis and run the separating-
  // axis test over the 6 edge normals. Overlap must be *proper*: shared
  // edges/vertices (zero-area contact) do not count.
  Vec3 u = b1 - a1;
  u = normalized(u);
  const Vec3 v = cross(un, u);
  auto project = [&](const Vec3& p) {
    return std::pair<double, double>{dot(p - a1, u), dot(p - a1, v)};
  };
  const std::array<std::pair<double, double>, 3> t1 = {project(a1), project(b1),
                                                       project(c1)};
  const std::array<std::pair<double, double>, 3> t2 = {project(a2), project(b2),
                                                       project(c2)};
  // SAT projections scale with (coordinate x edge length) ~ nlen; anything
  // shallower than this is contact, not overlap.
  const double margin = 1e-7 * nlen;
  auto separated_by_edges_of = [&](const auto& tri, const auto& other) {
    for (int i = 0; i < 3; ++i) {
      const auto& p0 = tri[static_cast<std::size_t>(i)];
      const auto& p1 = tri[static_cast<std::size_t>((i + 1) % 3)];
      // In-plane edge normal.
      const double ax = -(p1.second - p0.second);
      const double ay = p1.first - p0.first;
      double lo1 = 1e300, hi1 = -1e300, lo2 = 1e300, hi2 = -1e300;
      for (const auto& q : tri) {
        const double s = ax * q.first + ay * q.second;
        lo1 = std::min(lo1, s);
        hi1 = std::max(hi1, s);
      }
      for (const auto& q : other) {
        const double s = ax * q.first + ay * q.second;
        lo2 = std::min(lo2, s);
        hi2 = std::max(hi2, s);
      }
      // Overlap depth on this axis; <= margin means touching only.
      if (std::min(hi1, hi2) - std::max(lo1, lo2) <= margin) return true;
    }
    return false;
  };
  return !separated_by_edges_of(t1, t2) && !separated_by_edges_of(t2, t1);
}

}  // namespace prema::mesh
