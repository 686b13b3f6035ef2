#include "geom/cell_grid.h"

#include <algorithm>
#include <cmath>

namespace metadock::geom {

CellGrid::CellGrid(const Aabb& bounds, float cell_size) : bounds_(bounds), cell_size_(cell_size) {
  if (bounds_.empty() || cell_size_ <= 0.0f) {
    nx_ = ny_ = nz_ = 0;
    return;
  }
  const Vec3 s = bounds_.size();
  nx_ = std::max(1, static_cast<int>(std::ceil(s.x / cell_size_)));
  ny_ = std::max(1, static_cast<int>(std::ceil(s.y / cell_size_)));
  nz_ = std::max(1, static_cast<int>(std::ceil(s.z / cell_size_)));
  cells_.resize(static_cast<std::size_t>(nx_) * ny_ * nz_);
}

CellGrid CellGrid::over_points(std::span<const Vec3> points, float cell_size) {
  Aabb box;
  for (const Vec3& p : points) box.extend(p);
  CellGrid grid(box, cell_size);
  for (std::size_t i = 0; i < points.size(); ++i) {
    grid.insert(points[i], static_cast<std::uint32_t>(i));
  }
  return grid;
}

int CellGrid::clamp_coord(float v, float lo, int n) const {
  const int c = static_cast<int>(std::floor((v - lo) / cell_size_));
  return std::clamp(c, 0, n - 1);
}

void CellGrid::insert(const Vec3& p, std::uint32_t id) {
  if (cells_.empty()) return;
  const int cx = clamp_coord(p.x, bounds_.lo.x, nx_);
  const int cy = clamp_coord(p.y, bounds_.lo.y, ny_);
  const int cz = clamp_coord(p.z, bounds_.lo.z, nz_);
  cells_[static_cast<std::size_t>(cell_index(cx, cy, cz))].push_back({p, id});
  points_.push_back({p, id});
}

std::size_t CellGrid::count_within(const Vec3& p, float radius) const {
  std::size_t n = 0;
  for_each_within(p, radius, [&n](std::uint32_t, const Vec3&) { ++n; });
  return n;
}

bool CellGrid::has_point_closer_than(const Vec3& p, float min_dist) const {
  if (min_dist <= 0.0f) return false;
  const float r2 = min_dist * min_dist;
  return scan(p, min_dist, [&](const Entry& e) { return e.pos.distance2(p) < r2; });
}

}  // namespace metadock::geom
