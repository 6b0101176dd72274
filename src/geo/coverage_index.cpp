#include "geo/coverage_index.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace idde::geo {

namespace {

/// Cell of offset `f` (in cells from the origin) along an axis of `n`
/// cells, clamped into [0, n).
std::size_t clamp_cell(double f, std::size_t n) {
  if (!(f > 0.0)) return 0;
  if (f >= static_cast<double>(n - 1)) return n - 1;
  return static_cast<std::size_t>(f);
}

}  // namespace

CoverageIndex::CoverageIndex(std::span<const Point> centres,
                             std::span<const double> radii_m)
    : centres_(centres.begin(), centres.end()),
      radii_m_(radii_m.begin(), radii_m.end()) {
  IDDE_EXPECTS(centres.size() == radii_m.size());
  if (centres_.empty()) return;
  Point lo = centres_.front();
  Point hi = centres_.front();
  double max_radius_m = 0.0;
  for (std::size_t i = 0; i < centres_.size(); ++i) {
    const Point& c = centres_[i];
    const double r = radii_m_[i];
    IDDE_EXPECTS(std::isfinite(c.x) && std::isfinite(c.y));
    IDDE_EXPECTS(std::isfinite(r) && r >= 0.0);
    const double inflated = r * (1.0 + kDiscSlack);
    lo = {std::min(lo.x, c.x - inflated), std::min(lo.y, c.y - inflated)};
    hi = {std::max(hi.x, c.x + inflated), std::max(hi.y, c.y + inflated)};
    max_radius_m = std::max(max_radius_m, r);
  }
  const double extent = std::max(hi.x - lo.x, hi.y - lo.y);
  IDDE_EXPECTS(std::isfinite(extent));
  cell_m_ = std::max({1.0, max_radius_m / 4.0,
                      extent / static_cast<double>(kMaxCellsPerAxis)});
  // From one guard cell below the lowest box edge to one guard cell above
  // the cell holding the highest.
  origin_ = {lo.x - cell_m_, lo.y - cell_m_};
  cells_x_ = static_cast<std::size_t>((hi.x - lo.x) / cell_m_) + 3;
  cells_y_ = static_cast<std::size_t>((hi.y - lo.y) / cell_m_) + 3;

  // Disc i's cells: its inflated bounding box widened by one guard cell.
  // Rounding can move a point's computed cell by at most one across a cell
  // boundary, which the guard absorbs.
  struct CellRange {
    std::size_t x0, x1, y0, y1;
  };
  const auto cells_of = [&](std::size_t i) {
    const Point& c = centres_[i];
    const double inflated = radii_m_[i] * (1.0 + kDiscSlack);
    const std::size_t x0 =
        clamp_cell((c.x - inflated - origin_.x) / cell_m_, cells_x_);
    const std::size_t x1 =
        clamp_cell((c.x + inflated - origin_.x) / cell_m_, cells_x_);
    const std::size_t y0 =
        clamp_cell((c.y - inflated - origin_.y) / cell_m_, cells_y_);
    const std::size_t y1 =
        clamp_cell((c.y + inflated - origin_.y) / cell_m_, cells_y_);
    return CellRange{x0 == 0 ? 0 : x0 - 1, std::min(x1 + 1, cells_x_ - 1),
                     y0 == 0 ? 0 : y0 - 1, std::min(y1 + 1, cells_y_ - 1)};
  };

  // Counting sort into CSR: count each cell's discs at cell_start_[c],
  // turn the counts into cell ends, then place discs in descending order
  // at --end, which leaves every list ascending and cell_start_[c] at the
  // start of cell c.
  const std::size_t cell_count = cells_x_ * cells_y_;
  cell_start_.assign(cell_count + 1, 0);
  for (std::size_t i = 0; i < centres_.size(); ++i) {
    const CellRange r = cells_of(i);
    for (std::size_t y = r.y0; y <= r.y1; ++y) {
      for (std::size_t x = r.x0; x <= r.x1; ++x) {
        ++cell_start_[y * cells_x_ + x];
      }
    }
  }
  for (std::size_t c = 1; c <= cell_count; ++c) {
    cell_start_[c] += cell_start_[c - 1];
  }
  cell_items_.resize(cell_start_[cell_count]);
  for (std::size_t i = centres_.size(); i-- > 0;) {
    const CellRange r = cells_of(i);
    for (std::size_t y = r.y0; y <= r.y1; ++y) {
      for (std::size_t x = r.x0; x <= r.x1; ++x) {
        cell_items_[--cell_start_[y * cells_x_ + x]] = i;
      }
    }
  }
}

std::span<const std::size_t> CoverageIndex::candidates(const Point& at) const {
  const double fx = (at.x - origin_.x) / cell_m_;
  const double fy = (at.y - origin_.y) / cell_m_;
  if (!(fx >= 0.0 && fx < static_cast<double>(cells_x_) && fy >= 0.0 &&
        fy < static_cast<double>(cells_y_))) {
    return {};
  }
  const std::size_t c = static_cast<std::size_t>(fy) * cells_x_ +
                        static_cast<std::size_t>(fx);
  return {cell_items_.data() + cell_start_[c],
          cell_start_[c + 1] - cell_start_[c]};
}

void CoverageIndex::covering(const Point& at,
                             std::vector<std::size_t>& out) const {
  IDDE_EXPECTS(std::isfinite(at.x) && std::isfinite(at.y));
  out.clear();
  for (const std::size_t i : candidates(at)) {
    if (distance_m(centres_[i], at) <= radii_m_[i]) {
      out.push_back(i);
    }
  }
}

}  // namespace idde::geo
