// Static coverage index over discs that never move (edge servers' coverage
// areas). A uniform grid over the discs' bounding boxes lists, in every
// cell and in ascending order, each disc that can reach the cell, so the
// discs covering a point are one cell lookup plus an exact distance filter:
// no per-query grid walk and no sort.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geo/point.hpp"

namespace idde::geo {

/// Relative slack on disc tests, so floating-point ties at a rim cannot
/// drop a disc that distance_m puts a point on.
inline constexpr double kDiscSlack = 1e-9;

class CoverageIndex {
 public:
  /// At most this many cells per axis (plus the guard ring): a far-flung
  /// layout gets coarser cells, not a larger grid.
  static constexpr std::size_t kMaxCellsPerAxis = 256;

  /// An index over no discs: every point is covered by none.
  CoverageIndex() = default;

  /// Indexes disc i = (centres[i], radii_m[i]). Centres must be finite and
  /// radii finite and >= 0. Cells are a quarter of the largest radius
  /// (coarsened to the per-axis cap, at least 1 m). A disc is listed in
  /// every cell its kDiscSlack-inflated bounding box touches plus one
  /// guard cell on each side, so a cell's list is a superset of the discs
  /// covering any point that maps to it, whatever the rounding.
  CoverageIndex(std::span<const Point> centres,
                std::span<const double> radii_m);

  /// Overwrites `out` with {i : distance_m(centres[i], at) <= radii_m[i]},
  /// ascending. `at` must be finite. `out` keeps its capacity.
  void covering(const Point& at, std::vector<std::size_t>& out) const;

  /// The candidate list of the cell holding `at`, ascending: a superset of
  /// covering(at). Empty outside the grid, which spans every disc's
  /// bounding box plus the guard ring.
  [[nodiscard]] std::span<const std::size_t> candidates(
      const Point& at) const;

  [[nodiscard]] std::size_t cells_x() const noexcept { return cells_x_; }
  [[nodiscard]] std::size_t cells_y() const noexcept { return cells_y_; }

 private:
  std::vector<Point> centres_;
  std::vector<double> radii_m_;
  Point origin_;
  double cell_m_ = 1.0;
  std::size_t cells_x_ = 0;
  std::size_t cells_y_ = 0;
  /// CSR: cell c's discs are cell_items_[cell_start_[c], cell_start_[c+1]).
  std::vector<std::size_t> cell_start_;
  std::vector<std::size_t> cell_items_;
};

}  // namespace idde::geo
