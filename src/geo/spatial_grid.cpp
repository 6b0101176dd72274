#include "geo/spatial_grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace idde::geo {

SpatialGrid::SpatialGrid(const std::vector<Point>& points, BoundingBox bounds,
                         double cell_size_m)
    : points_(points), bounds_(bounds), cell_size_(cell_size_m) {
  IDDE_EXPECTS(cell_size_m > 0.0);
  IDDE_EXPECTS(bounds.width() >= 0.0 && bounds.height() >= 0.0);
  cells_x_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(bounds.width() / cell_size_m)));
  cells_y_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(bounds.height() / cell_size_m)));

  // Counting sort into CSR cells.
  std::vector<std::size_t> counts(cells_x_ * cells_y_ + 1, 0);
  std::vector<std::size_t> point_cell(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    point_cell[i] = cell_of(points_[i]);
    ++counts[point_cell[i] + 1];
  }
  for (std::size_t c = 1; c < counts.size(); ++c) counts[c] += counts[c - 1];
  cell_start_ = counts;
  cell_items_.resize(points_.size());
  std::vector<std::size_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    cell_items_[cursor[point_cell[i]]++] = i;
  }
}

std::size_t SpatialGrid::cell_of(const Point& p) const noexcept {
  const Point q = bounds_.clamp(p);
  auto cx = static_cast<std::size_t>((q.x - bounds_.min.x) / cell_size_);
  auto cy = static_cast<std::size_t>((q.y - bounds_.min.y) / cell_size_);
  cx = std::min(cx, cells_x_ - 1);
  cy = std::min(cy, cells_y_ - 1);
  return cell_index(cx, cy);
}

void SpatialGrid::query_radius(const Point& center, double radius_m,
                               std::vector<std::size_t>& out) const {
  IDDE_EXPECTS(radius_m >= 0.0);
  out.clear();
  if (points_.empty()) return;

  const Point clamped = bounds_.clamp(center);
  const auto span = static_cast<std::ptrdiff_t>(radius_m / cell_size_) + 1;
  const auto ccx = static_cast<std::ptrdiff_t>(
      (clamped.x - bounds_.min.x) / cell_size_);
  const auto ccy = static_cast<std::ptrdiff_t>(
      (clamped.y - bounds_.min.y) / cell_size_);
  const double r2 = radius_m * radius_m;

  for (std::ptrdiff_t cy = ccy - span; cy <= ccy + span; ++cy) {
    if (cy < 0 || cy >= static_cast<std::ptrdiff_t>(cells_y_)) continue;
    for (std::ptrdiff_t cx = ccx - span; cx <= ccx + span; ++cx) {
      if (cx < 0 || cx >= static_cast<std::ptrdiff_t>(cells_x_)) continue;
      const std::size_t c = cell_index(static_cast<std::size_t>(cx),
                                       static_cast<std::size_t>(cy));
      for (std::size_t s = cell_start_[c]; s < cell_start_[c + 1]; ++s) {
        const std::size_t i = cell_items_[s];
        if (squared_distance_m2(points_[i], center) <= r2) out.push_back(i);
      }
    }
  }
  std::sort(out.begin(), out.end());
}

std::size_t SpatialGrid::nearest(const Point& center) const {
  // Expanding-ring search; falls back to a full scan once the ring covers
  // the whole grid (correct for any query point, in or out of bounds).
  if (points_.empty()) return npos;
  std::size_t best = npos;
  double best_d2 = std::numeric_limits<double>::infinity();
  const std::size_t max_ring = std::max(cells_x_, cells_y_);
  std::vector<std::size_t> candidates;
  for (std::size_t ring = 0; ring <= max_ring; ++ring) {
    const double reach = static_cast<double>(ring) * cell_size_;
    query_radius(center, reach + cell_size_, candidates);
    for (const std::size_t i : candidates) {
      const double d2 = squared_distance_m2(points_[i], center);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = i;
      }
    }
    // Any point in an unexplored cell is at least `reach` away.
    if (best != npos && best_d2 <= reach * reach) break;
  }
  return best;
}

}  // namespace idde::geo
