#include "mesh/advancing_front.hpp"

#include <algorithm>
#include <cmath>

#include "mesh/spatial_grid.hpp"
#include "support/assert.hpp"

namespace prema::mesh {

namespace {

/// Initial candidate-search radius as a multiple of the local face size.
constexpr double kSearchFactor = 2.0;
/// Hard cap on front steps relative to the point count (safety valve).
constexpr std::int64_t kMaxStepsPerPoint = 64;

}  // namespace

double TetMesh::total_volume() const {
  double vol = 0.0;
  for (const auto& t : tets) {
    vol += signed_volume(points[static_cast<std::size_t>(t.v[0])],
                         points[static_cast<std::size_t>(t.v[1])],
                         points[static_cast<std::size_t>(t.v[2])],
                         points[static_cast<std::size_t>(t.v[3])]);
  }
  return vol;
}

double TetMesh::min_quality() const {
  double q = 1.0;
  for (const auto& t : tets) {
    q = std::min(q, tet_quality(points[static_cast<std::size_t>(t.v[0])],
                                points[static_cast<std::size_t>(t.v[1])],
                                points[static_cast<std::size_t>(t.v[2])],
                                points[static_cast<std::size_t>(t.v[3])]));
  }
  return q;
}

class AdvancingFront::SpatialIndexes {
 public:
  explicit SpatialIndexes(double cell) : points(cell) {}
  SpatialGrid points;
};

AdvancingFront::~AdvancingFront() = default;

std::uint64_t AdvancingFront::face_key(const Face& f) {
  std::array<PointId, 3> s = f.v;
  std::sort(s.begin(), s.end());
  PREMA_CHECK_MSG(s[2] < (1 << 21), "advancing front supports < 2^21 points");
  return (static_cast<std::uint64_t>(s[0]) << 42) |
         (static_cast<std::uint64_t>(s[1]) << 21) |
         static_cast<std::uint64_t>(s[2]);
}

AdvancingFront::AdvancingFront(std::vector<Vec3> points,
                               std::vector<Face> boundary_faces) {
  mesh_.points = std::move(points);
  PREMA_CHECK_MSG(!mesh_.points.empty(), "mesher needs points");
  Vec3 lo = mesh_.points[0], hi = mesh_.points[0];
  for (const auto& p : mesh_.points) {
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
  }
  domain_diag_ = std::max(1e-12, distance(lo, hi));
  double min_edge = domain_diag_;
  for (const auto& f : boundary_faces) {
    min_edge =
        std::min(min_edge, distance(mesh_.points[static_cast<std::size_t>(f.v[0])],
                                    mesh_.points[static_cast<std::size_t>(f.v[1])]));
  }
  idx_ = std::make_unique<SpatialIndexes>(std::max(1e-9, min_edge));
  for (std::size_t i = 0; i < mesh_.points.size(); ++i) {
    idx_->points.insert(static_cast<std::int32_t>(i), mesh_.points[i]);
  }
  for (const auto& f : boundary_faces) push_front(f);
}

std::size_t AdvancingFront::front_size() const { return on_front_.size(); }

void AdvancingFront::push_front(const Face& f) {
  FrontFace ff;
  ff.face = f;
  ff.area = triangle_area(pt(f.v[0]), pt(f.v[1]), pt(f.v[2]));
  const std::size_t idx = faces_.size();
  const auto key = face_key(f);
  PREMA_CHECK_MSG(on_front_.find(key) == on_front_.end(),
                  "duplicate face pushed to the front");
  faces_.push_back(ff);
  on_front_.emplace(key, idx);
  heap_.push_back(idx);
  std::push_heap(heap_.begin(), heap_.end(), [this](std::size_t x, std::size_t y) {
    return faces_[x].area > faces_[y].area;
  });
}

void AdvancingFront::add_or_cancel(const Face& f) {
  const auto key = face_key(f);
  auto it = on_front_.find(key);
  if (it != on_front_.end()) {
    faces_[it->second].alive = false;
    on_front_.erase(it);
    closed_.insert(key);
    return;
  }
  PREMA_CHECK_MSG(closed_.count(key) == 0, "re-opening an interior face");
  push_front(f);
}

PointId AdvancingFront::delaunay_apex(const Face& f) {
  const Vec3 &a = pt(f.v[0]), &b = pt(f.v[1]), &c = pt(f.v[2]);
  const Vec3 centroid = triangle_centroid(a, b, c);
  const Vec3 normal = triangle_normal(a, b, c);
  const double local = std::sqrt(std::max(1e-30, 2.0 * triangle_area(a, b, c)));
  const double vol_eps = 1e-12 * local * local * local;

  auto is_face_vertex = [&](PointId id) {
    return id == f.v[0] || id == f.v[1] || id == f.v[2];
  };

  // Among positive-side candidates, the Delaunay neighbour minimizes the
  // signed height of the circumcenter along the face normal.
  PointId best = -1;
  double best_h = 1e300;
  auto consider = [&](std::int32_t id, const Vec3& p) {
    if (is_face_vertex(id)) return;
    if (signed_volume(a, b, c, p) <= vol_eps) return;
    Vec3 center;
    double r2;
    if (!tet_circumsphere(a, b, c, p, center, r2)) return;
    const double h = dot(center - centroid, normal);
    if (h < best_h - 1e-12 * local ||
        (std::abs(h - best_h) <= 1e-12 * local && (best < 0 || id < best))) {
      best = id;
      best_h = h;
    }
  };

  double radius = kSearchFactor * local;
  while (best < 0 && radius < 4.0 * domain_diag_) {
    idx_->points.for_each_in_ball(centroid, radius, consider);
    radius *= 2.0;
  }
  if (best < 0) return -1;

  // Verify / repair: the chosen tet's circumsphere must be empty. A strictly
  // interior positive-side point is a better neighbour; take it and re-check.
  for (int iter = 0; iter < 64; ++iter) {
    const Vec3& d = pt(best);
    Vec3 center;
    double r2;
    if (!tet_circumsphere(a, b, c, d, center, r2)) return best;
    PointId violator = -1;
    double deepest = r2 * (1.0 - 1e-10);
    idx_->points.for_each_in_ball(
        center, std::sqrt(r2), [&](std::int32_t id, const Vec3& p) {
          if (is_face_vertex(id) || id == best) return;
          if (signed_volume(a, b, c, p) <= vol_eps) return;  // wrong side
          const double d2 = norm2(p - center);
          if (d2 < deepest) {
            deepest = d2;
            violator = id;
          }
        });
    if (violator < 0) return best;
    best = violator;
  }
  return best;
}

bool AdvancingFront::commit_tet(const Face& f, PointId apex) {
  // Topological gate: a side triangle must be brand new, or the exact mirror
  // of a live front face (which it then cancels). A triangle already interior
  // or already on the front with the same orientation means the point set has
  // a (near-)degeneracy the Delaunay criterion resolved inconsistently —
  // reject and let the face retry with the conflict resolved elsewhere.
  const std::array<Face, 3> new_faces = {Face{{f.v[0], f.v[1], apex}},
                                         Face{{f.v[1], f.v[2], apex}},
                                         Face{{f.v[2], f.v[0], apex}}};
  for (const Face& nf : new_faces) {
    const auto key = face_key(nf);
    if (closed_.count(key) != 0) return false;
    auto it = on_front_.find(key);
    if (it == on_front_.end()) continue;
    const auto& existing = faces_[it->second].face.v;
    for (int r = 0; r < 3; ++r) {
      if (existing[0] == nf.v[static_cast<std::size_t>(r)] &&
          existing[1] == nf.v[static_cast<std::size_t>((r + 1) % 3)] &&
          existing[2] == nf.v[static_cast<std::size_t>((r + 2) % 3)]) {
        return false;  // same orientation already on the front
      }
    }
  }

  mesh_.tets.push_back(Tet{{f.v[0], f.v[1], f.v[2], apex}});
  ++stats_.tets_created;
  closed_.insert(face_key(f));
  for (const Face& nf : new_faces) add_or_cancel(nf);
  return true;
}

AftStats AdvancingFront::run() {
  const std::int64_t max_steps =
      kMaxStepsPerPoint *
      static_cast<std::int64_t>(std::max<std::size_t>(mesh_.points.size(), 1));
  auto heap_cmp = [this](std::size_t x, std::size_t y) {
    return faces_[x].area > faces_[y].area;
  };

  std::int64_t steps = 0;
  while (!heap_.empty() && steps < max_steps) {
    std::pop_heap(heap_.begin(), heap_.end(), heap_cmp);
    const std::size_t fi = heap_.back();
    heap_.pop_back();
    const auto key = face_key(faces_[fi].face);
    auto it = on_front_.find(key);
    if (!faces_[fi].alive || it == on_front_.end() || it->second != fi) continue;
    ++steps;

    const Face f = faces_[fi].face;
    const PointId apex = delaunay_apex(f);
    bool built = false;
    if (apex >= 0) {
      // Retire the face first; commit_tet's gate sees a consistent front.
      faces_[fi].alive = false;
      on_front_.erase(it);
      built = commit_tet(f, apex);
      if (!built) {
        faces_[fi].alive = true;
        on_front_.emplace(key, fi);
      }
    }
    if (!built) {
      faces_[fi].area *= 1.7;  // sink it; neighbours may resolve the conflict
      heap_.push_back(fi);
      std::push_heap(heap_.begin(), heap_.end(), heap_cmp);
    }
  }
  stats_.completed = on_front_.empty();
  return stats_;
}

// ---------------------------------------------------------------------------
// Point / surface generators
// ---------------------------------------------------------------------------

namespace {

/// True if p is strictly inside the circumcircle of coplanar triangle (a,b,c).
bool in_circumcircle(const Vec3& a, const Vec3& b, const Vec3& c, const Vec3& p) {
  const Vec3 ab = b - a, ac = c - a;
  const Vec3 n = cross(ab, ac);
  const double n2 = norm2(n);
  if (n2 <= 0.0) return false;
  const Vec3 cc =
      a + (cross(n, ab) * norm2(ac) + cross(ac, n) * norm2(ab)) / (2.0 * n2);
  const double r2 = norm2(a - cc);
  return norm2(p - cc) < r2 * (1.0 - 1e-12);
}

}  // namespace

void box_surface(const Vec3& lo, const Vec3& hi, int divisions,
                 std::vector<Vec3>& points, std::vector<Face>& faces,
                 std::uint64_t seed) {
  PREMA_CHECK(divisions >= 1);
  PREMA_CHECK(hi.x > lo.x && hi.y > lo.y && hi.z > lo.z);
  points.clear();
  faces.clear();
  const int n = divisions;
  const Vec3 step{(hi.x - lo.x) / n, (hi.y - lo.y) / n, (hi.z - lo.z) / n};
  std::unordered_map<std::int64_t, PointId> ids;
  auto lattice_id = [n](int i, int j, int k) {
    return (static_cast<std::int64_t>(i) * (n + 1) + j) * (n + 1) + k;
  };
  auto get = [&](int i, int j, int k) -> PointId {
    const auto lid = lattice_id(i, j, k);
    auto it = ids.find(lid);
    if (it != ids.end()) return it->second;
    Vec3 p{lo.x + step.x * i, lo.y + step.y * j, lo.z + step.z * k};
    // Jitter tangentially: free axes are those not pinned to a box face, so
    // every point stays exactly on the surface and the volume stays exact.
    util::SplitMix64 sm(seed ^ static_cast<std::uint64_t>(lid) * 0x9E3779B97F4A7C15ULL);
    auto jit = [&sm](double amplitude) {
      return amplitude * (static_cast<double>(sm.next() >> 11) * 0x1.0p-53 - 0.5);
    };
    if (i != 0 && i != n) p.x += jit(0.35 * step.x);
    if (j != 0 && j != n) p.y += jit(0.35 * step.y);
    if (k != 0 && k != n) p.z += jit(0.35 * step.z);
    const auto id = static_cast<PointId>(points.size());
    points.push_back(p);
    ids.emplace(lid, id);
    return id;
  };
  // Each surface quad is split along its locally Delaunay diagonal so the
  // boundary triangulation conforms to the 3-D Delaunay complex.
  auto quad = [&](PointId p00, PointId p10, PointId p11, PointId p01) {
    const Vec3 &a = points[static_cast<std::size_t>(p00)],
               &b = points[static_cast<std::size_t>(p10)],
               &c = points[static_cast<std::size_t>(p11)],
               &d = points[static_cast<std::size_t>(p01)];
    if (in_circumcircle(a, b, c, d) || in_circumcircle(a, c, d, b)) {
      faces.push_back(Face{{p10, p11, p01}});
      faces.push_back(Face{{p10, p01, p00}});
    } else {
      faces.push_back(Face{{p00, p10, p11}});
      faces.push_back(Face{{p00, p11, p01}});
    }
  };
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      quad(get(i, j, 0), get(i + 1, j, 0), get(i + 1, j + 1, 0), get(i, j + 1, 0));
      quad(get(i, j, n), get(i, j + 1, n), get(i + 1, j + 1, n), get(i + 1, j, n));
      quad(get(i, 0, j), get(i, 0, j + 1), get(i + 1, 0, j + 1), get(i + 1, 0, j));
      quad(get(i, n, j), get(i + 1, n, j), get(i + 1, n, j + 1), get(i, n, j + 1));
      quad(get(0, i, j), get(0, i + 1, j), get(0, i + 1, j + 1), get(0, i, j + 1));
      quad(get(n, i, j), get(n, i, j + 1), get(n, i + 1, j + 1), get(n, i + 1, j));
    }
  }
}

namespace {

void octree_points(const Vec3& lo, const Vec3& hi, const SizingField& sizing,
                   util::SplitMix64& sm, int depth, int max_depth,
                   std::vector<Vec3>& out) {
  const Vec3 center = (lo + hi) * 0.5;
  const double size = std::max({hi.x - lo.x, hi.y - lo.y, hi.z - lo.z});
  if (depth >= max_depth || size <= sizing.size_at(center)) {
    auto jit = [&sm](double amplitude) {
      return amplitude * (static_cast<double>(sm.next() >> 11) * 0x1.0p-53 - 0.5);
    };
    out.push_back(center + Vec3{jit(0.5 * size), jit(0.5 * size), jit(0.5 * size)});
    return;
  }
  for (int oct = 0; oct < 8; ++oct) {
    const Vec3 clo{(oct & 1) != 0 ? center.x : lo.x, (oct & 2) != 0 ? center.y : lo.y,
                   (oct & 4) != 0 ? center.z : lo.z};
    const Vec3 chi{(oct & 1) != 0 ? hi.x : center.x, (oct & 2) != 0 ? hi.y : center.y,
                   (oct & 4) != 0 ? hi.z : center.z};
    octree_points(clo, chi, sizing, sm, depth + 1, max_depth, out);
  }
}

}  // namespace

std::vector<Vec3> interior_points(const Vec3& lo, const Vec3& hi,
                                  const SizingField& sizing, std::uint64_t seed,
                                  int max_depth) {
  std::vector<Vec3> out;
  util::SplitMix64 sm(seed);
  // Shrink the sampled box so interior points keep a margin from the
  // boundary lattice (where they would fight the surface triangulation).
  const Vec3 extent = hi - lo;
  const double margin_frac = 0.08;
  const Vec3 mlo = lo + extent * margin_frac;
  const Vec3 mhi = hi - extent * margin_frac;
  octree_points(mlo, mhi, sizing, sm, 0, max_depth, out);
  return out;
}

}  // namespace prema::mesh
