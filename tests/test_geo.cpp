// Geometry, the coverage index, point processes and the synthetic EUA scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "geo/bbox.hpp"
#include "geo/coverage_index.hpp"
#include "geo/eua.hpp"
#include "geo/generators.hpp"
#include "geo/point.hpp"

namespace {

using namespace idde::geo;
using idde::util::Rng;

TEST(Point, Distances) {
  EXPECT_DOUBLE_EQ(distance_m({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(squared_distance_m2({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(distance_m({-1, -1}, {-4, 3}), 5.0);
}

TEST(BoundingBox, ContainsAndClamp) {
  const BoundingBox box = BoundingBox::square(10.0);
  EXPECT_TRUE(box.contains({0, 0}));
  EXPECT_TRUE(box.contains({10, 10}));
  EXPECT_FALSE(box.contains({10.1, 5}));
  EXPECT_EQ(box.clamp({-5, 20}), (Point{0, 10}));
  EXPECT_EQ(box.clamp({3, 4}), (Point{3, 4}));
  EXPECT_DOUBLE_EQ(box.width(), 10.0);
  EXPECT_DOUBLE_EQ(box.height(), 10.0);
}

// The coverage index against the N x M definition: V(p) = {i :
// distance_m(centre_i, p) <= r_i}, ascending. Every query also checks that
// the cell's candidate list is strictly ascending and holds every covering
// disc (the superset the exact filter relies on).
struct Discs {
  std::vector<Point> centres;
  std::vector<double> radii;

  void add(Point centre, double radius) {
    centres.push_back(centre);
    radii.push_back(radius);
  }
  [[nodiscard]] CoverageIndex index() const {
    return CoverageIndex(centres, radii);
  }
  [[nodiscard]] std::vector<std::size_t> brute_force(const Point& p) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < centres.size(); ++i) {
      if (distance_m(centres[i], p) <= radii[i]) out.push_back(i);
    }
    return out;
  }
};

void expect_matches_brute_force(const Discs& discs, const CoverageIndex& index,
                                const std::vector<Point>& points) {
  std::vector<std::size_t> found{99};  // reused: each query overwrites it
  for (const Point& p : points) {
    const std::vector<std::size_t> expected = discs.brute_force(p);
    index.covering(p, found);
    EXPECT_EQ(found, expected) << "at (" << p.x << ", " << p.y << ")";
    const std::span<const std::size_t> candidates = index.candidates(p);
    EXPECT_TRUE(std::adjacent_find(candidates.begin(), candidates.end(),
                                   std::greater_equal<>()) ==
                candidates.end());
    EXPECT_TRUE(std::includes(candidates.begin(), candidates.end(),
                              expected.begin(), expected.end()));
  }
}

/// The four points exactly one radius from each centre along the axes.
std::vector<Point> rim_points(const Discs& discs) {
  std::vector<Point> points;
  for (std::size_t i = 0; i < discs.centres.size(); ++i) {
    const Point c = discs.centres[i];
    const double r = discs.radii[i];
    points.insert(points.end(), {Point{c.x + r, c.y}, Point{c.x - r, c.y},
                                 Point{c.x, c.y + r}, Point{c.x, c.y - r}});
  }
  return points;
}

TEST(CoverageIndex, RandomLayoutsMatchBruteForce) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    Rng rng(seed);
    Discs discs;
    const double side = rng.uniform(500.0, 5000.0);
    for (std::size_t i = 0; i < 60; ++i) {
      discs.add({rng.uniform(0.0, side), rng.uniform(0.0, side)},
                rng.uniform(0.0, 400.0));
    }
    std::vector<Point> points;
    for (std::size_t j = 0; j < 1000; ++j) {
      points.push_back({rng.uniform(-500.0, side + 500.0),
                        rng.uniform(-500.0, side + 500.0)});
    }
    expect_matches_brute_force(discs, discs.index(), points);
  }
}

TEST(CoverageIndex, UsersOnARimAlongEachAxis) {
  Rng rng(24);
  Discs discs;
  for (std::size_t i = 0; i < 40; ++i) {
    discs.add({rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)},
              rng.uniform(50.0, 250.0));
  }
  // Radii that are exact binary fractions put the rim points exactly at
  // distance r, on cell boundaries of the quarter-radius grid.
  discs.add({1000.0, 1000.0}, 256.0);
  discs.add({0.0, 0.0}, 64.0);
  const CoverageIndex index = discs.index();
  const std::vector<Point> rims = rim_points(discs);
  expect_matches_brute_force(discs, index, rims);
  // Those two discs (the last) must cover their own four rim points.
  const std::size_t n = discs.centres.size();
  std::vector<std::size_t> found;
  for (std::size_t k = 0; k < 8; ++k) {
    const std::size_t disc = n - 2 + k / 4;
    index.covering(rims[4 * (n - 2) + k], found);
    EXPECT_TRUE(std::binary_search(found.begin(), found.end(), disc))
        << "rim point " << k % 4 << " of disc " << disc;
  }
}

TEST(CoverageIndex, OutsideEveryDiscAndOutsideTheGrid) {
  Discs discs;
  discs.add({100.0, 100.0}, 50.0);
  discs.add({400.0, 100.0}, 80.0);
  const CoverageIndex index = discs.index();
  // Inside the grid but between the discs, then far outside the grid on
  // every side.
  const std::vector<Point> points{{250.0, 100.0}, {-1e6, 100.0},
                                  {1e6, 100.0},   {100.0, -1e6},
                                  {100.0, 1e6},   {-1e300, 1e300}};
  expect_matches_brute_force(discs, index, points);
  std::vector<std::size_t> found{7};
  for (const Point& p : points) {
    index.covering(p, found);
    EXPECT_TRUE(found.empty());
  }
  for (std::size_t k = 1; k < points.size(); ++k) {
    EXPECT_TRUE(index.candidates(points[k]).empty());
  }
}

TEST(CoverageIndex, CoincidentServersAndAZeroRadius) {
  Discs discs;
  discs.add({500.0, 500.0}, 0.0);
  discs.add({500.0, 500.0}, 120.0);
  discs.add({500.0, 500.0}, 120.0);
  discs.add({700.0, 500.0}, 0.0);
  const CoverageIndex index = discs.index();
  expect_matches_brute_force(
      discs, index,
      {{500.0, 500.0}, {700.0, 500.0}, {620.0, 500.0}, {500.0, 500.1}});
  std::vector<std::size_t> found;
  index.covering({500.0, 500.0}, found);
  EXPECT_EQ(found, (std::vector<std::size_t>{0, 1, 2}));
  index.covering({700.0, 500.0}, found);
  EXPECT_EQ(found, (std::vector<std::size_t>{3}));
}

TEST(CoverageIndex, OneDiscAndNoDiscs) {
  Discs one;
  one.add({5.0, 5.0}, 2.0);
  expect_matches_brute_force(one, one.index(),
                             {{5.0, 5.0}, {7.0, 5.0}, {7.1, 5.0}, {0.0, 0.0}});
  const CoverageIndex none = Discs{}.index();
  std::vector<std::size_t> found{3};
  none.covering({1.0, 1.0}, found);
  EXPECT_TRUE(found.empty());
  EXPECT_TRUE(none.candidates({0.0, 0.0}).empty());
  EXPECT_TRUE(CoverageIndex{}.candidates({0.0, 0.0}).empty());
}

TEST(CoverageIndex, FarFlungLayoutHitsTheCellCap) {
  Rng rng(25);
  Discs discs;
  for (std::size_t i = 0; i < 30; ++i) {
    discs.add({rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)},
              rng.uniform(50.0, 250.0));
  }
  discs.add({1e9, -1e9}, 100.0);
  const CoverageIndex index = discs.index();
  // Coarsened to the cap (plus the guard ring), not 1e9 / 50 m cells.
  EXPECT_LE(index.cells_x(), CoverageIndex::kMaxCellsPerAxis + 3);
  EXPECT_LE(index.cells_y(), CoverageIndex::kMaxCellsPerAxis + 3);
  std::vector<Point> points = rim_points(discs);
  for (std::size_t j = 0; j < 500; ++j) {
    points.push_back(
        {rng.uniform(-100.0, 2100.0), rng.uniform(-100.0, 2100.0)});
  }
  points.insert(points.end(), {Point{1e9 + 60.0, -1e9}, Point{1e9, -1e9 - 99.0},
                               Point{1e9 + 101.0, -1e9}});
  expect_matches_brute_force(discs, index, points);
}

TEST(Generators, UniformStaysInBounds) {
  Rng rng(1);
  const BoundingBox box{{10, 20}, {30, 50}};
  for (const Point& p : generate_uniform(500, box, rng)) {
    EXPECT_TRUE(box.contains(p));
  }
}

TEST(Generators, UniformCountAndSpread) {
  Rng rng(2);
  const BoundingBox box = BoundingBox::square(100.0);
  const auto pts = generate_uniform(2000, box, rng);
  EXPECT_EQ(pts.size(), 2000u);
  double mx = 0.0;
  for (const Point& p : pts) mx += p.x;
  EXPECT_NEAR(mx / 2000.0, 50.0, 3.0);
}

TEST(Generators, JitteredGridExactCountInBounds) {
  Rng rng(3);
  const BoundingBox box = BoundingBox::square(1000.0);
  for (const std::size_t n : {1u, 5u, 12u, 125u}) {
    const auto pts = generate_jittered_grid(n, box, 30.0, rng);
    EXPECT_EQ(pts.size(), n);
    for (const Point& p : pts) EXPECT_TRUE(box.contains(p));
  }
}

TEST(Generators, JitteredGridZeroJitterIsRegular) {
  Rng rng(4);
  const BoundingBox box = BoundingBox::square(100.0);
  const auto a = generate_jittered_grid(9, box, 0.0, rng);
  const auto b = generate_jittered_grid(9, box, 0.0, rng);
  EXPECT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  // 3x3 grid over 100: first point at (100/3)*0.5.
  EXPECT_NEAR(a[0].x, 100.0 / 6.0, 1e-9);
}

TEST(Generators, ThomasClustersAroundCenters) {
  Rng rng(5);
  const BoundingBox box = BoundingBox::square(1000.0);
  const std::vector<Point> centers{{200, 200}, {800, 800}};
  ThomasParams params{.parent_count = 2,
                      .cluster_stddev = 20.0,
                      .background_fraction = 0.0};
  const auto pts = generate_thomas(400, box, params, rng, &centers);
  EXPECT_EQ(pts.size(), 400u);
  // Every point should be near one of the two centres (5 sigma).
  for (const Point& p : pts) {
    const double d = std::min(distance_m(p, centers[0]), distance_m(p, centers[1]));
    EXPECT_LT(d, 100.0);
  }
}

TEST(Generators, ThomasBackgroundFractionOneIsUniform) {
  Rng rng(6);
  const BoundingBox box = BoundingBox::square(1000.0);
  ThomasParams params{.parent_count = 1,
                      .cluster_stddev = 1.0,
                      .background_fraction = 1.0};
  const auto pts = generate_thomas(1000, box, params, rng);
  double mean_x = 0.0;
  for (const Point& p : pts) mean_x += p.x;
  EXPECT_NEAR(mean_x / 1000.0, 500.0, 40.0);
}

TEST(Eua, GeneratesRequestedCounts) {
  Rng rng(7);
  const EuaScenarioParams params;
  const EuaScenario s = generate_eua_scenario(params, rng);
  EXPECT_EQ(s.server_positions.size(), 125u);
  EXPECT_EQ(s.coverage_radii_m.size(), 125u);
  EXPECT_EQ(s.user_positions.size(), 816u);
  for (const double r : s.coverage_radii_m) {
    EXPECT_GE(r, params.min_coverage_radius_m);
    EXPECT_LE(r, params.max_coverage_radius_m);
  }
  for (const Point& p : s.server_positions) EXPECT_TRUE(s.bounds.contains(p));
  for (const Point& p : s.user_positions) EXPECT_TRUE(s.bounds.contains(p));
}

TEST(Eua, DeterministicForSameSeed) {
  Rng a(9);
  Rng b(9);
  const EuaScenario sa = generate_eua_scenario({}, a);
  const EuaScenario sb = generate_eua_scenario({}, b);
  EXPECT_EQ(sa.server_positions, sb.server_positions);
  EXPECT_EQ(sa.user_positions, sb.user_positions);
  EXPECT_EQ(sa.coverage_radii_m, sb.coverage_radii_m);
}

TEST(Eua, SubsampleKeepsPairing) {
  Rng rng(10);
  const EuaScenario full = generate_eua_scenario({}, rng);
  Rng sub_rng(11);
  const EuaScenario sub = subsample(full, 30, 200, sub_rng);
  EXPECT_EQ(sub.server_positions.size(), 30u);
  EXPECT_EQ(sub.coverage_radii_m.size(), 30u);
  EXPECT_EQ(sub.user_positions.size(), 200u);
  // Every sampled (position, radius) pair must exist in the full scenario.
  for (std::size_t s = 0; s < 30; ++s) {
    bool found = false;
    for (std::size_t i = 0; i < full.server_positions.size(); ++i) {
      if (full.server_positions[i] == sub.server_positions[s] &&
          full.coverage_radii_m[i] == sub.coverage_radii_m[s]) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(Eua, SubsampleCoveredPrefersCoveredUsers) {
  Rng rng(12);
  const EuaScenario full = generate_eua_scenario({}, rng);
  Rng sub_rng(13);
  const EuaScenario sub = subsample_covered(full, 30, 200, sub_rng);
  std::size_t covered = 0;
  for (const Point& u : sub.user_positions) {
    for (std::size_t s = 0; s < sub.server_positions.size(); ++s) {
      if (distance_m(u, sub.server_positions[s]) <= sub.coverage_radii_m[s]) {
        ++covered;
        break;
      }
    }
  }
  // With 30 of 125 servers there are far more than 200 covered users in
  // the 816 pool, so everyone sampled should be covered.
  EXPECT_EQ(covered, 200u);
}

// Coverage-multiplicity sweep across sub-sampled sizes: the synthetic EUA
// should look like the CBD extraction (mean coverage roughly 1-6 and a
// covered majority) at every N used by the paper.
class EuaCoverageTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EuaCoverageTest, CoverageMultiplicityInRange) {
  Rng rng(14);
  const EuaScenario full = generate_eua_scenario({}, rng);
  Rng sub_rng(15 + GetParam());
  const EuaScenario sub = subsample_covered(full, GetParam(), 200, sub_rng);
  double total = 0.0;
  for (const Point& u : sub.user_positions) {
    for (std::size_t s = 0; s < sub.server_positions.size(); ++s) {
      if (distance_m(u, sub.server_positions[s]) <= sub.coverage_radii_m[s]) {
        total += 1.0;
      }
    }
  }
  const double mean = total / 200.0;
  EXPECT_GE(mean, 0.9);
  EXPECT_LE(mean, 8.0);
}

INSTANTIATE_TEST_SUITE_P(PaperNs, EuaCoverageTest,
                         ::testing::Values(20, 25, 30, 35, 40, 45, 50));

}  // namespace
