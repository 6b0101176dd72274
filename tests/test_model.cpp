// Request matrix, instance builder, instance invariants, validation and the
// JSON scenario round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "geo/point.hpp"
#include "model/instance_builder.hpp"
#include "model/request_matrix.hpp"
#include "model/validation.hpp"
#include "radio/shadowing.hpp"
#include "sim/paper.hpp"
#include "sim/scenario.hpp"
#include "util/random.hpp"

namespace {

using namespace idde;
using model::InstanceParams;
using model::ProblemInstance;
using model::RequestMatrix;

InstanceParams small_params() {
  InstanceParams p;
  p.server_count = 10;
  p.user_count = 40;
  p.data_count = 4;
  return p;
}

TEST(RequestMatrix, AddAndQuery) {
  RequestMatrix m(3, 2);
  EXPECT_FALSE(m.requests(0, 0));
  m.add_request(0, 0);
  m.add_request(2, 1);
  EXPECT_TRUE(m.requests(0, 0));
  EXPECT_TRUE(m.requests(2, 1));
  EXPECT_FALSE(m.requests(1, 0));
  EXPECT_EQ(m.total_requests(), 2u);
}

TEST(RequestMatrix, AddIsIdempotent) {
  RequestMatrix m(2, 2);
  m.add_request(1, 1);
  m.add_request(1, 1);
  EXPECT_EQ(m.total_requests(), 1u);
  EXPECT_EQ(m.items_of(1).size(), 1u);
  EXPECT_EQ(m.users_of(1).size(), 1u);
}

TEST(RequestMatrix, BidirectionalIndexesAgree) {
  RequestMatrix m(4, 3);
  m.add_request(0, 1);
  m.add_request(1, 1);
  m.add_request(1, 2);
  m.add_request(3, 0);
  std::size_t total_by_user = 0;
  for (std::size_t j = 0; j < 4; ++j) total_by_user += m.items_of(j).size();
  std::size_t total_by_item = 0;
  for (std::size_t k = 0; k < 3; ++k) total_by_item += m.users_of(k).size();
  EXPECT_EQ(total_by_user, m.total_requests());
  EXPECT_EQ(total_by_item, m.total_requests());
  EXPECT_EQ(m.users_of(1).size(), 2u);
}

TEST(InstanceBuilder, ShapesMatchParams) {
  const ProblemInstance inst = model::make_instance(small_params(), 1);
  EXPECT_EQ(inst.server_count(), 10u);
  EXPECT_EQ(inst.user_count(), 40u);
  EXPECT_EQ(inst.data_count(), 4u);
  EXPECT_EQ(inst.graph().node_count(), 10u);
  EXPECT_EQ(inst.radio_env().user_count, 40u);
}

TEST(InstanceBuilder, DeterministicPerSeed) {
  const InstanceParams p = small_params();
  const ProblemInstance a = model::make_instance(p, 7);
  const ProblemInstance b = model::make_instance(p, 7);
  for (std::size_t i = 0; i < a.server_count(); ++i) {
    EXPECT_EQ(a.server(i).position, b.server(i).position);
    EXPECT_DOUBLE_EQ(a.server(i).storage_mb, b.server(i).storage_mb);
  }
  for (std::size_t j = 0; j < a.user_count(); ++j) {
    EXPECT_EQ(a.user(j).position, b.user(j).position);
    EXPECT_DOUBLE_EQ(a.user(j).power_watts, b.user(j).power_watts);
    EXPECT_EQ(a.requests().items_of(j).size(),
              b.requests().items_of(j).size());
  }
  EXPECT_EQ(a.radio_env().gain, b.radio_env().gain);
}

TEST(InstanceBuilder, DifferentSeedsDiffer) {
  const InstanceParams p = small_params();
  const ProblemInstance a = model::make_instance(p, 1);
  const ProblemInstance b = model::make_instance(p, 2);
  bool any_difference = false;
  for (std::size_t j = 0; j < a.user_count() && !any_difference; ++j) {
    any_difference = !(a.user(j).position == b.user(j).position);
  }
  EXPECT_TRUE(any_difference);
}

TEST(InstanceBuilder, ValuesWithinPaperRanges) {
  const ProblemInstance inst = model::make_instance(small_params(), 3);
  for (const model::EdgeServer& s : inst.servers()) {
    EXPECT_GE(s.storage_mb, 30.0);
    EXPECT_LE(s.storage_mb, 300.0);
    EXPECT_GE(s.coverage_radius_m, 100.0);
    EXPECT_LE(s.coverage_radius_m, 200.0);
  }
  for (const model::User& u : inst.users()) {
    EXPECT_GE(u.power_watts, 1.0);
    EXPECT_LE(u.power_watts, 5.0);
    EXPECT_GE(u.max_rate_mbps, 150.0);
    EXPECT_LE(u.max_rate_mbps, 250.0);
  }
  const std::set<double> allowed{30.0, 60.0, 90.0};
  for (const model::DataItem& d : inst.data_items()) {
    EXPECT_TRUE(allowed.contains(d.size_mb));
  }
}

TEST(InstanceBuilder, EveryUserRequestsSomething) {
  const ProblemInstance inst = model::make_instance(small_params(), 4);
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    EXPECT_GE(inst.requests().items_of(j).size(), 1u);
    EXPECT_LE(inst.requests().items_of(j).size(), 2u);
  }
}

TEST(InstanceBuilder, CoverageSetsSortedAndGeometricallyCorrect) {
  const ProblemInstance inst = model::make_instance(small_params(), 5);
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    const auto& covering = inst.covering_servers(j);
    EXPECT_TRUE(std::is_sorted(covering.begin(), covering.end()));
    // Exactness both ways against brute force.
    for (std::size_t i = 0; i < inst.server_count(); ++i) {
      const bool geometric =
          geo::distance_m(inst.server(i).position, inst.user(j).position) <=
          inst.server(i).coverage_radius_m;
      const bool listed =
          std::binary_search(covering.begin(), covering.end(), i);
      EXPECT_EQ(geometric, listed) << "user " << j << " server " << i;
    }
  }
}

// coverage_sets narrows candidates with the static coverage index; it must
// agree with the N x M definition (distance_m <= r_i) for users outside the
// servers' bounding box, zero radii, points exactly on a disc boundary, and
// a far-flung server that coarsens the grid to its cell cap.
TEST(CoverageSets, MatchBruteForceDefinition) {
  util::Rng rng(17);
  std::vector<model::EdgeServer> servers;
  for (std::size_t i = 0; i < 40; ++i) {
    servers.push_back(model::EdgeServer{
        .position = {rng.uniform(0.0, 3000.0), rng.uniform(0.0, 3000.0)},
        .coverage_radius_m = i == 0 ? 0.0 : rng.uniform(50.0, 250.0),
    });
  }
  servers.push_back(model::EdgeServer{.position = {1000.0, 1000.0},
                                      .coverage_radius_m = 300.0});
  std::vector<model::User> users;
  for (std::size_t j = 0; j < 400; ++j) {
    users.push_back(model::User{
        .position = {rng.uniform(-2000.0, 5000.0),
                     rng.uniform(-2000.0, 5000.0)}});
  }
  users.push_back(model::User{.position = servers[0].position});
  users.push_back(model::User{.position = {1300.0, 1000.0}});
  const auto brute_force = [&] {
    std::vector<std::vector<model::ServerId>> covering(users.size());
    for (std::size_t j = 0; j < users.size(); ++j) {
      for (std::size_t i = 0; i < servers.size(); ++i) {
        if (geo::distance_m(servers[i].position, users[j].position) <=
            servers[i].coverage_radius_m) {
          covering[j].push_back(i);
        }
      }
    }
    return covering;
  };
  const auto expected = brute_force();
  std::vector<std::vector<model::ServerId>> covering;
  model::coverage_sets(servers, users, covering);
  EXPECT_EQ(covering, expected);
  // The zero-radius server covers a user on its own position, and the
  // 300 m server (index 40) one exactly 300 m away.
  const auto& on_centre = expected[users.size() - 2];
  EXPECT_TRUE(std::binary_search(on_centre.begin(), on_centre.end(), 0u));
  EXPECT_TRUE(std::binary_search(expected.back().begin(),
                                 expected.back().end(), 40u));

  servers.push_back(model::EdgeServer{.position = {1e9, -1e9},
                                      .coverage_radius_m = 100.0});
  users.push_back(model::User{.position = {1e9 + 60.0, -1e9}});
  model::coverage_sets(servers, users, covering);
  EXPECT_EQ(covering, brute_force());
}

TEST(InstanceBuilder, CoveredUsersIsInverseOfCoveringServers) {
  const ProblemInstance inst = model::make_instance(small_params(), 6);
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    for (const std::size_t j : inst.covered_users(i)) {
      const auto& covering = inst.covering_servers(j);
      EXPECT_TRUE(std::binary_search(covering.begin(), covering.end(), i));
    }
  }
}

TEST(InstanceBuilder, MostUsersCovered) {
  // The coverage-aware sub-sampling should cover (nearly) all users at the
  // paper's default scale.
  InstanceParams p;
  p.server_count = 30;
  p.user_count = 200;
  const ProblemInstance inst = model::make_instance(p, 7);
  const model::CoverageStats stats = model::coverage_stats(inst);
  EXPECT_EQ(stats.uncovered_users, 0u);
  EXPECT_GE(stats.mean_coverage, 1.0);
}

TEST(InstanceBuilder, GraphConnectedAcrossDensities) {
  for (const double density : {1.0, 1.8, 3.0}) {
    InstanceParams p = small_params();
    p.density = density;
    const ProblemInstance inst = model::make_instance(p, 8);
    EXPECT_TRUE(inst.graph().is_connected());
  }
}

TEST(InstanceBuilder, AggregatesComputed) {
  const ProblemInstance inst = model::make_instance(small_params(), 9);
  double total = 0.0;
  for (const auto& s : inst.servers()) total += s.storage_mb;
  EXPECT_DOUBLE_EQ(inst.total_storage_mb(), total);
  double mx = 0.0;
  for (const auto& d : inst.data_items()) mx = std::max(mx, d.size_mb);
  EXPECT_DOUBLE_EQ(inst.max_data_size_mb(), mx);
}

TEST(Validation, CleanInstancePasses) {
  const ProblemInstance inst = model::make_instance(small_params(), 10);
  EXPECT_TRUE(model::validate_instance(inst).empty());
}

TEST(Validation, CoverageStatsShape) {
  const ProblemInstance inst = model::make_instance(small_params(), 11);
  const model::CoverageStats stats = model::coverage_stats(inst);
  EXPECT_LE(stats.uncovered_users, inst.user_count());
  EXPECT_GE(stats.max_coverage, 1u);
}

TEST(Scenario, JsonRoundTripPreservesEverything) {
  InstanceParams p = small_params();
  p.density = 2.2;
  p.channels_per_server = 4;
  p.zipf_exponent = 1.1;
  p.data_size_choices_mb = {10.0, 20.0};
  p.eua.area_side_m = 1500.0;
  const std::string text = sim::params_to_string(p);
  const InstanceParams q = sim::params_from_string(text);
  EXPECT_EQ(q.server_count, p.server_count);
  EXPECT_EQ(q.user_count, p.user_count);
  EXPECT_EQ(q.data_count, p.data_count);
  EXPECT_DOUBLE_EQ(q.density, p.density);
  EXPECT_EQ(q.channels_per_server, p.channels_per_server);
  EXPECT_DOUBLE_EQ(q.zipf_exponent, p.zipf_exponent);
  EXPECT_EQ(q.data_size_choices_mb, p.data_size_choices_mb);
  EXPECT_DOUBLE_EQ(q.eua.area_side_m, p.eua.area_side_m);
}

TEST(Scenario, PartialJsonKeepsDefaults) {
  const InstanceParams defaults;
  const InstanceParams q =
      sim::params_from_string(R"({"server_count": 12})");
  EXPECT_EQ(q.server_count, 12u);
  EXPECT_EQ(q.user_count, defaults.user_count);
  EXPECT_DOUBLE_EQ(q.cloud_speed_mbps, defaults.cloud_speed_mbps);
}

TEST(Scenario, UnknownKeysIgnored) {
  const InstanceParams q =
      sim::params_from_string(R"({"bogus": 1, "user_count": 33})");
  EXPECT_EQ(q.user_count, 33u);
}

TEST(Scenario, RoundTrippedParamsBuildIdenticalInstances) {
  const InstanceParams p = small_params();
  const InstanceParams q =
      sim::params_from_string(sim::params_to_string(p));
  const ProblemInstance a = model::make_instance(p, 99);
  const ProblemInstance b = model::make_instance(q, 99);
  EXPECT_EQ(a.radio_env().gain, b.radio_env().gain);
  EXPECT_DOUBLE_EQ(a.total_storage_mb(), b.total_storage_mb());
}

// Sweep across the paper's N/M/K grid: instances must always validate.
struct GridParam {
  std::size_t n, m, k;
};

class InstanceGridTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(InstanceGridTest, BuildsValidInstances) {
  const auto [n, m] = GetParam();
  InstanceParams p;
  p.server_count = n;
  p.user_count = m;
  const ProblemInstance inst = model::make_instance(p, 1234 + n + m);
  EXPECT_TRUE(model::validate_instance(inst).empty());
}

INSTANTIATE_TEST_SUITE_P(PaperGrid, InstanceGridTest,
                         ::testing::Combine(::testing::Values(20, 35, 50),
                                            ::testing::Values(50, 200, 350)));

// ---------------------------------------------------------------------------
// The sparse gain store: the builder keeps g_{i,t} for i in reach(t) only,
// and each kept value is the one a dense N x M build would have drawn.

/// Dense reference gain of (i, j) at sigma = 0: plain path loss.
double path_loss(const InstanceParams& p, const ProblemInstance& inst,
                 std::size_t i, std::size_t j) {
  return radio::PathLossModel(p.pathloss_eta, p.pathloss_exponent)
      .gain(geo::distance_m(inst.server(i).position, inst.user(j).position));
}

/// The store's shape: nbr(o) holds o and exactly the servers whose
/// coverage discs meet o's, and reach(j) holds V_j.
void expect_sparse_shape(const ProblemInstance& inst) {
  const radio::RadioEnvironment& env = inst.radio_env();
  const auto& servers = inst.servers();
  std::size_t wrong = 0;
  for (std::size_t o = 0; o < servers.size(); ++o) {
    const auto& nbr = env.neighbours[o];
    for (std::size_t i = 0; i < servers.size(); ++i) {
      const bool meet =
          geo::distance_m(servers[i].position, servers[o].position) <=
          (servers[i].coverage_radius_m + servers[o].coverage_radius_m) *
              (1.0 + model::kDiscSlack);
      if (std::binary_search(nbr.begin(), nbr.end(), i) != (i == o || meet)) {
        ++wrong;
      }
    }
  }
  EXPECT_EQ(wrong, 0u) << "server pairs misfiled in nbr";
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    const auto reach = env.reach(j);
    for (const std::size_t i : inst.covering_servers(j)) {
      EXPECT_TRUE(std::binary_search(reach.begin(), reach.end(), i));
    }
  }
  EXPECT_NO_THROW(env.check());
}

std::vector<std::pair<std::string, InstanceParams>> sparse_cases() {
  std::vector<std::pair<std::string, InstanceParams>> cases;
  for (const auto& set : {sim::paper_set1(), sim::paper_set2(),
                          sim::paper_set3(), sim::paper_set4()}) {
    for (const sim::SweepPoint& point : set) {
      cases.emplace_back(point.label, point.params);
    }
  }
  InstanceParams city = sim::paper_default_params();
  city.server_count = 125;
  city.user_count = 816;
  city.data_count = 12;
  cases.emplace_back("city", city);
  cases.emplace_back(
      "metro-short",
      sim::params_from_string(
          R"({"server_count":60,"user_count":960,)"
          R"("eua":{"area_side_m":1386,"server_count":60,"user_count":960}})"));
  return cases;
}

TEST(SparseGains, StoredEntriesEqualPathLossBitwise) {
  for (const auto& [label, params] : sparse_cases()) {
    SCOPED_TRACE(label);
    const ProblemInstance inst = model::make_instance(params, 17);
    expect_sparse_shape(inst);
    const radio::RadioEnvironment& env = inst.radio_env();
    std::size_t stored = 0;
    for (std::size_t j = 0; j < inst.user_count(); ++j) {
      const auto reach = env.reach(j);
      for (std::size_t e = 0; e < reach.size(); ++e) {
        ASSERT_EQ(env.gains(j)[e], path_loss(params, inst, reach[e], j))
            << "gain (" << reach[e] << ", " << j << ")";
        ASSERT_EQ(env.gain_at(reach[e], j), env.gains(j)[e]);
      }
      stored += reach.size();
    }
    EXPECT_LE(stored, inst.server_count() * inst.user_count());
  }
}

TEST(SparseGains, ShadowedEntriesReplayTheDenseStream) {
  InstanceParams p = sim::paper_default_params();
  p.shadowing_stddev_db = 6.0;
  const std::uint64_t seed = 23;
  const ProblemInstance inst = model::make_instance(p, seed);
  expect_sparse_shape(inst);
  // The dense build drew one shadowing number per (i, j), server-major,
  // from fork(7) of the instance seed; replay it and compare the kept pairs.
  const radio::ShadowedPathLoss pathloss(
      radio::PathLossModel(p.pathloss_eta, p.pathloss_exponent),
      p.shadowing_stddev_db);
  util::Rng stream = util::Rng(seed).fork(7);
  const radio::RadioEnvironment& env = inst.radio_env();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    for (std::size_t j = 0; j < inst.user_count(); ++j) {
      const double dense = pathloss.sample_gain(
          geo::distance_m(inst.server(i).position, inst.user(j).position),
          stream);
      const auto reach = env.reach(j);
      if (!std::binary_search(reach.begin(), reach.end(), i)) continue;
      ASSERT_EQ(env.gain_at(i, j), dense) << "gain (" << i << ", " << j << ")";
      ++kept;
    }
  }
  EXPECT_EQ(kept, env.gain.size());
  // Shadowing acts: some kept gain differs from plain path loss.
  bool shadowed = false;
  for (std::size_t j = 0; j < inst.user_count() && !shadowed; ++j) {
    for (const std::size_t i : env.reach(j)) {
      shadowed = shadowed || env.gain_at(i, j) != path_loss(p, inst, i, j);
    }
  }
  EXPECT_TRUE(shadowed);
}

}  // namespace
