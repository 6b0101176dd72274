// Geometry, spatial index, point processes and the synthetic EUA scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "geo/bbox.hpp"
#include "geo/eua.hpp"
#include "geo/generators.hpp"
#include "geo/point.hpp"
#include "geo/spatial_grid.hpp"

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

class SpatialGridTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    bounds_ = BoundingBox::square(1000.0);
    points_ = generate_uniform(300, bounds_, rng);
    grid_ = std::make_unique<SpatialGrid>(points_, bounds_, 50.0);
  }

  std::vector<std::size_t> brute_force_radius(const Point& c,
                                              double r) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (distance_m(points_[i], c) <= r) out.push_back(i);
    }
    return out;
  }

  BoundingBox bounds_;
  std::vector<Point> points_;
  std::unique_ptr<SpatialGrid> grid_;
};

TEST_F(SpatialGridTest, RadiusQueryMatchesBruteForce) {
  Rng rng(12);
  // One reused output vector: each query overwrites the previous result.
  std::vector<std::size_t> found;
  for (int trial = 0; trial < 50; ++trial) {
    const Point c{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    const double r = rng.uniform(10, 300);
    grid_->query_radius(c, r, found);
    EXPECT_EQ(found, brute_force_radius(c, r));
  }
}

TEST_F(SpatialGridTest, ZeroRadiusFindsOnlyCoincidentPoints) {
  std::vector<std::size_t> result;
  grid_->query_radius(points_[5], 0.0, result);
  EXPECT_FALSE(result.empty());
  for (const std::size_t i : result) {
    EXPECT_DOUBLE_EQ(distance_m(points_[i], points_[5]), 0.0);
  }
}

TEST_F(SpatialGridTest, NearestMatchesBruteForce) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const Point c{rng.uniform(-100, 1100), rng.uniform(-100, 1100)};
    const std::size_t found = grid_->nearest(c);
    double best = 1e18;
    std::size_t expected = SpatialGrid::npos;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const double d = squared_distance_m2(points_[i], c);
      if (d < best) {
        best = d;
        expected = i;
      }
    }
    ASSERT_NE(found, SpatialGrid::npos);
    // Ties are acceptable: require equal distance rather than equal index.
    EXPECT_DOUBLE_EQ(squared_distance_m2(points_[found], c), best)
        << "found " << found << " expected " << expected;
  }
}

TEST(SpatialGrid, EmptyGrid) {
  const SpatialGrid grid({}, BoundingBox::square(10.0), 1.0);
  EXPECT_EQ(grid.nearest({1, 1}), SpatialGrid::npos);
  std::vector<std::size_t> found{7};
  grid.query_radius({1, 1}, 100.0, found);
  EXPECT_TRUE(found.empty());
}

TEST(SpatialGrid, SinglePoint) {
  const SpatialGrid grid({Point{5, 5}}, BoundingBox::square(10.0), 2.0);
  EXPECT_EQ(grid.nearest({0, 0}), 0u);
  std::vector<std::size_t> found;
  grid.query_radius({5, 5}, 0.1, found);
  EXPECT_EQ(found.size(), 1u);
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
