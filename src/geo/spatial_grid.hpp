// Uniform-grid spatial index over points. Coverage computation ("which
// servers cover user u_j") is a radius query per user; the grid makes the
// instance build O(M + N) instead of O(M·N) for city-scale scenarios.
#pragma once

#include <cstddef>
#include <vector>

#include "geo/bbox.hpp"
#include "geo/point.hpp"

namespace idde::geo {

class SpatialGrid {
 public:
  /// Builds an index over `points` inside `bounds` with roughly
  /// `cell_size_m`-metre cells. Points outside bounds are clamped into it.
  SpatialGrid(const std::vector<Point>& points, BoundingBox bounds,
              double cell_size_m);

  /// Overwrites `out` with the indices of all points within `radius_m`
  /// metres of `center` (inclusive), ascending. `out` keeps its capacity,
  /// so a caller that reuses it allocates nothing once it is large enough.
  void query_radius(const Point& center, double radius_m,
                    std::vector<std::size_t>& out) const;

  /// Index of the nearest point to `center`; npos when the grid is empty.
  [[nodiscard]] std::size_t nearest(const Point& center) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }

 private:
  [[nodiscard]] std::size_t cell_of(const Point& p) const noexcept;
  [[nodiscard]] std::size_t cell_index(std::size_t cx,
                                       std::size_t cy) const noexcept {
    return cy * cells_x_ + cx;
  }

  std::vector<Point> points_;
  BoundingBox bounds_;
  double cell_size_;
  std::size_t cells_x_ = 0;
  std::size_t cells_y_ = 0;
  // CSR layout: cell_start_[c]..cell_start_[c+1] indexes into cell_items_.
  std::vector<std::size_t> cell_start_;
  std::vector<std::size_t> cell_items_;
};

}  // namespace idde::geo
