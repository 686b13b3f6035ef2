// Uniform cell grid over a point set.  Two uses in MetaDock:
//   * minimum-distance rejection during synthetic molecule generation
//     (packing atoms at protein density without O(n^2) checks), and
//   * neighbour counting for the surface-exposure heuristic in `surface`.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/aabb.h"
#include "geom/vec3.h"

namespace metadock::geom {

class CellGrid {
 public:
  /// Builds a grid with cubic cells of edge `cell_size` covering `bounds`.
  /// cell_size must be > 0; bounds may be empty (then every query is empty).
  CellGrid(const Aabb& bounds, float cell_size);

  /// Builds a grid sized to the points' bounding box and inserts them all.
  static CellGrid over_points(std::span<const Vec3> points, float cell_size);

  /// Inserts a point with an external id.  Points outside the original
  /// bounds are clamped into the boundary cells.
  void insert(const Vec3& p, std::uint32_t id);

  /// Calls fn(id, position) for every inserted point within `radius` of `p`.
  template <typename Fn>
  void for_each_within(const Vec3& p, float radius, Fn&& fn) const {
    if (radius < 0.0f) return;
    const float r2 = radius * radius;
    (void)scan(p, radius, [&](const Entry& e) {
      if (e.pos.distance2(p) <= r2) fn(e.id, e.pos);
      return false;
    });
  }

  /// Number of inserted points within `radius` of `p` (excluding points at
  /// distance exactly > radius).
  [[nodiscard]] std::size_t count_within(const Vec3& p, float radius) const;

  /// True when some inserted point lies strictly closer than `min_dist`.
  [[nodiscard]] bool has_point_closer_than(const Vec3& p, float min_dist) const;

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }

 private:
  struct Entry {
    Vec3 pos;
    std::uint32_t id;
  };

  [[nodiscard]] int cell_index(int cx, int cy, int cz) const {
    return (cz * ny_ + cy) * nx_ + cx;
  }
  [[nodiscard]] int clamp_coord(float v, float lo, int n) const;

  /// The one traversal: calls visit(entry) for every entry in the cells
  /// that can hold points within `radius` of `p`, until a call returns
  /// true.  Returns whether one did.
  template <typename Visit>
  bool scan(const Vec3& p, float radius, Visit&& visit) const {
    if (cells_.empty()) return false;
    const int reach = static_cast<int>(std::ceil(radius / cell_size_));
    const int cx = clamp_coord(p.x, bounds_.lo.x, nx_);
    const int cy = clamp_coord(p.y, bounds_.lo.y, ny_);
    const int cz = clamp_coord(p.z, bounds_.lo.z, nz_);
    for (int z = std::max(0, cz - reach); z <= std::min(nz_ - 1, cz + reach); ++z) {
      for (int y = std::max(0, cy - reach); y <= std::min(ny_ - 1, cy + reach); ++y) {
        for (int x = std::max(0, cx - reach); x <= std::min(nx_ - 1, cx + reach); ++x) {
          for (const Entry& e : cells_[static_cast<std::size_t>(cell_index(x, y, z))]) {
            if (visit(e)) return true;
          }
        }
      }
    }
    return false;
  }

  Aabb bounds_;
  float cell_size_;
  int nx_ = 0, ny_ = 0, nz_ = 0;
  std::vector<std::vector<Entry>> cells_;
  std::vector<Entry> points_;
};

}  // namespace metadock::geom
