// Solver substrate: exhaustive oracles, placement branch-and-bound
// optimality on small instances, anytime behaviour, and the joint search.
#include <gtest/gtest.h>

#include "core/game.hpp"
#include "core/greedy_delivery.hpp"
#include "core/metrics.hpp"
#include "core/validation.hpp"
#include "model/instance_builder.hpp"
#include "solver/exhaustive.hpp"
#include "solver/joint_search.hpp"
#include "solver/placement_bnb.hpp"

namespace {

using namespace idde;
using core::AllocationProfile;
using model::InstanceParams;
using model::ProblemInstance;

InstanceParams micro_params(std::size_t n = 3, std::size_t m = 5,
                            std::size_t k = 2) {
  InstanceParams p;
  p.server_count = n;
  p.user_count = m;
  p.data_count = k;
  return p;
}

TEST(ExhaustiveAllocation, BeatsOrMatchesEveryOtherProfileTried) {
  const ProblemInstance inst = model::make_instance(micro_params(), 1);
  const AllocationProfile best = solver::optimal_allocation(inst);
  const double best_rate = core::average_data_rate_mbps(inst, best);
  // Compare against the game equilibrium and random profiles.
  const auto game = core::IddeUGame(inst).run();
  EXPECT_GE(best_rate + 1e-9, core::average_data_rate_mbps(inst, game.allocation));
  util::Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    AllocationProfile random(inst.user_count(), core::kUnallocated);
    for (std::size_t j = 0; j < inst.user_count(); ++j) {
      const auto& cov = inst.covering_servers(j);
      if (cov.empty()) continue;
      random[j] = core::ChannelSlot{
          cov[rng.index(cov.size())],
          rng.index(inst.radio_env().channels_per_server)};
    }
    EXPECT_GE(best_rate + 1e-9, core::average_data_rate_mbps(inst, random));
  }
}

TEST(ExhaustiveDelivery, BeatsOrMatchesGreedy) {
  for (std::uint64_t seed = 5; seed < 10; ++seed) {
    InstanceParams p = micro_params(4, 10, 3);  // 12 decisions
    const ProblemInstance inst = model::make_instance(p, seed);
    const auto game = core::IddeUGame(inst).run();
    const auto optimal = solver::optimal_delivery(inst, game.allocation);
    const auto greedy = core::GreedyDeliveryPlanner(inst).plan(game.allocation);
    EXPECT_LE(core::total_latency_seconds(inst, game.allocation, optimal),
              core::total_latency_seconds(inst, game.allocation,
                                          greedy.delivery) +
                  1e-9)
        << "seed " << seed;
  }
}

TEST(PlacementBnb, MatchesExhaustiveOptimumWithoutDeadline) {
  for (std::uint64_t seed = 10; seed < 15; ++seed) {
    InstanceParams p = micro_params(4, 10, 3);
    const ProblemInstance inst = model::make_instance(p, seed);
    const auto game = core::IddeUGame(inst).run();
    const util::Deadline no_deadline(-1.0);
    const auto bnb =
        solver::placement_branch_and_bound(inst, game.allocation, no_deadline);
    EXPECT_TRUE(bnb.proven_optimal);
    const auto oracle = solver::optimal_delivery(inst, game.allocation);
    EXPECT_NEAR(
        bnb.total_latency_seconds,
        core::total_latency_seconds(inst, game.allocation, oracle), 1e-9)
        << "seed " << seed;
  }
}

TEST(PlacementBnb, DeadlineStopsEarlyButStaysFeasible) {
  InstanceParams p;
  p.server_count = 20;
  p.user_count = 100;
  p.data_count = 6;
  const ProblemInstance inst = model::make_instance(p, 20);
  const auto game = core::IddeUGame(inst).run();
  const util::Deadline deadline(5.0);
  const auto bnb =
      solver::placement_branch_and_bound(inst, game.allocation, deadline);
  EXPECT_FALSE(bnb.proven_optimal);
  core::Strategy s{game.allocation, bnb.delivery};
  EXPECT_TRUE(core::validate_strategy(inst, s).empty());
  // The incumbent must at least improve on cloud-only delivery.
  core::DeliveryEvaluator cloud(inst, game.allocation);
  EXPECT_LT(bnb.total_latency_seconds, cloud.total_latency_seconds());
}

TEST(PlacementBnb, MoreTimeNeverHurts) {
  InstanceParams p;
  p.server_count = 12;
  p.user_count = 60;
  p.data_count = 5;
  const ProblemInstance inst = model::make_instance(p, 21);
  const auto game = core::IddeUGame(inst).run();
  const auto quick = solver::placement_branch_and_bound(
      inst, game.allocation, util::Deadline(2.0));
  const auto slow = solver::placement_branch_and_bound(
      inst, game.allocation, util::Deadline(200.0));
  EXPECT_LE(slow.total_latency_seconds,
            quick.total_latency_seconds + 1e-9);
  EXPECT_GE(slow.nodes_explored, quick.nodes_explored);
}

TEST(JointSearch, ProducesFeasibleStrategyWithinBudget) {
  const ProblemInstance inst = model::make_instance(micro_params(8, 40, 4), 30);
  util::Rng rng(30);
  util::Stopwatch sw;
  const auto result =
      solver::joint_search(inst, rng, {.budget_ms = 40.0});
  EXPECT_LE(sw.elapsed_ms(), 400.0);
  EXPECT_TRUE(core::validate_strategy(inst, result.strategy).empty());
  EXPECT_GT(result.allocation_probes, 0u);
  EXPECT_GT(result.placement_nodes, 0u);
  EXPECT_EQ(result.strategy.approach_name, "IDDE-IP");
}

TEST(JointSearch, MoreProbesWithMoreBudget) {
  const ProblemInstance inst = model::make_instance(micro_params(8, 40, 4), 31);
  util::Rng rng_a(31);
  util::Rng rng_b(31);
  const auto small = solver::joint_search(inst, rng_a, {.budget_ms = 10.0});
  const auto large = solver::joint_search(inst, rng_b, {.budget_ms = 80.0});
  EXPECT_GT(large.allocation_probes, small.allocation_probes);
}

}  // namespace
