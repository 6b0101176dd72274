// Benchmark-approach tests: feasibility for all five approaches, behavioural
// contracts (delivery semantics, allocation policies), and determinism.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/allocators.hpp"
#include "baselines/cdp.hpp"
#include "baselines/dup_g.hpp"
#include "baselines/idde_ip.hpp"
#include "baselines/local_placement.hpp"
#include "baselines/saa.hpp"
#include "core/idde_g.hpp"
#include "core/metrics.hpp"
#include "core/validation.hpp"
#include "geo/point.hpp"
#include "model/instance_builder.hpp"
#include "sim/runner.hpp"
#include "util/timer.hpp"

namespace {

using namespace idde;
using model::InstanceParams;
using model::ProblemInstance;

InstanceParams small_params() {
  InstanceParams p;
  p.server_count = 10;
  p.user_count = 50;
  p.data_count = 4;
  return p;
}

TEST(NearestAllocation, PicksGeometricallyNearestServer) {
  const ProblemInstance inst = model::make_instance(small_params(), 1);
  const auto profile = baselines::nearest_allocation(inst);
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    if (!profile[j].allocated()) {
      EXPECT_TRUE(inst.covering_servers(j).empty());
      continue;
    }
    const double chosen = geo::distance_m(
        inst.server(profile[j].server).position, inst.user(j).position);
    for (const std::size_t i : inst.covering_servers(j)) {
      EXPECT_LE(chosen,
                geo::distance_m(inst.server(i).position, inst.user(j).position) +
                    1e-9);
    }
  }
}

TEST(NearestAllocation, LeastLoadedBalancesChannels) {
  const ProblemInstance inst = model::make_instance(small_params(), 2);
  const auto profile = baselines::nearest_allocation(inst);
  const std::size_t channels = inst.radio_env().channels_per_server;
  // Per-server channel loads must differ by at most 1 (round-robin-like).
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    std::vector<std::size_t> load(channels, 0);
    for (std::size_t j = 0; j < inst.user_count(); ++j) {
      if (profile[j].allocated() && profile[j].server == i) {
        ++load[profile[j].channel];
      }
    }
    const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
    EXPECT_LE(*hi - *lo, 1u) << "server " << i;
  }
}

TEST(RandomAllocation, StaysWithinCoverage) {
  const ProblemInstance inst = model::make_instance(small_params(), 3);
  util::Rng rng(3);
  const auto profile = baselines::random_allocation(inst, rng);
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    if (!profile[j].allocated()) continue;
    const auto& covering = inst.covering_servers(j);
    EXPECT_TRUE(std::binary_search(covering.begin(), covering.end(),
                                   profile[j].server));
  }
}

TEST(LocalPlacement, RespectsStorageAndDemand) {
  const ProblemInstance inst = model::make_instance(small_params(), 4);
  std::vector<std::vector<std::size_t>> demand(inst.server_count());
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    demand[i] = inst.covered_users(i);
  }
  util::Rng rng(4);
  const auto delivery = baselines::local_demand_placement(
      inst, demand, {.per_mb = true, .sample_fraction = 1.0}, rng);
  std::vector<double> used(inst.server_count(), 0.0);
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    for (const std::size_t i : delivery.hosts(k)) {
      used[i] += inst.data(k).size_mb;
    }
  }
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    EXPECT_LE(used[i], inst.server(i).storage_mb + 1e-9);
  }
}

TEST(LocalPlacement, NoDemandNoPlacement) {
  const ProblemInstance inst = model::make_instance(small_params(), 5);
  std::vector<std::vector<std::size_t>> demand(inst.server_count());
  util::Rng rng(5);
  const auto delivery = baselines::local_demand_placement(
      inst, demand, {.per_mb = true, .sample_fraction = 1.0}, rng);
  EXPECT_EQ(delivery.placement_count(), 0u);
}

// All five approaches produce feasible strategies on random instances.
class ApproachFeasibilityTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ApproachFeasibilityTest, ProducesValidStrategy) {
  const auto [approach_index, seed] = GetParam();
  const auto approaches = sim::make_paper_approaches(/*ip_budget_ms=*/30.0);
  const ProblemInstance inst = model::make_instance(small_params(), seed);
  util::Rng rng(seed ^ 0x1234);
  const core::Strategy strategy =
      approaches[static_cast<std::size_t>(approach_index)]->solve(inst, rng);
  EXPECT_TRUE(core::validate_strategy(inst, strategy).empty())
      << approaches[static_cast<std::size_t>(approach_index)]->name();
}

INSTANTIATE_TEST_SUITE_P(AllApproaches, ApproachFeasibilityTest,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(10, 11, 12)));

TEST(Cdp, IsNonCollaborativeAndNamed) {
  const ProblemInstance inst = model::make_instance(small_params(), 20);
  util::Rng rng(20);
  const baselines::Cdp cdp;
  EXPECT_EQ(cdp.name(), "CDP");
  const core::Strategy s = cdp.solve(inst, rng);
  EXPECT_FALSE(s.collaborative_delivery);
  EXPECT_EQ(s.approach_name, "CDP");
}

TEST(DupG, IsNonCollaborative) {
  const ProblemInstance inst = model::make_instance(small_params(), 21);
  util::Rng rng(21);
  const core::Strategy s = baselines::DupG().solve(inst, rng);
  EXPECT_FALSE(s.collaborative_delivery);
}

TEST(DupG, AllocatesOnlyToCacheHoldingServers) {
  const ProblemInstance inst = model::make_instance(small_params(), 22);
  util::Rng rng(22);
  const core::Strategy s = baselines::DupG().solve(inst, rng);
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    if (!s.allocation[j].allocated()) continue;
    bool holds = false;
    for (const std::size_t k : inst.requests().items_of(j)) {
      if (s.delivery.placed(s.allocation[j].server, k)) {
        holds = true;
        break;
      }
    }
    EXPECT_TRUE(holds) << "user " << j;
  }
}

TEST(DupG, MayLeaveUsersUnallocated) {
  // The hard cache-coupling typically strands some users — that is the
  // behaviour that costs DUP-G data rate in the comparison.
  std::size_t total_unallocated = 0;
  for (std::uint64_t seed = 23; seed < 27; ++seed) {
    const ProblemInstance inst = model::make_instance(small_params(), seed);
    util::Rng rng(seed);
    const core::Strategy s = baselines::DupG().solve(inst, rng);
    total_unallocated += inst.user_count() -
                         static_cast<std::size_t>(std::count_if(
                             s.allocation.begin(), s.allocation.end(),
                             [](const core::ChannelSlot& c) {
                               return c.allocated();
                             }));
  }
  EXPECT_GT(total_unallocated, 0u);
}

TEST(Saa, CollaborativeDeliveryFlagSet) {
  const ProblemInstance inst = model::make_instance(small_params(), 28);
  util::Rng rng(28);
  const core::Strategy s = baselines::Saa().solve(inst, rng);
  EXPECT_TRUE(s.collaborative_delivery);
}

TEST(Saa, SamplingChangesWithRngButStaysFeasible) {
  const ProblemInstance inst = model::make_instance(small_params(), 29);
  util::Rng rng_a(1);
  util::Rng rng_b(2);
  const baselines::Saa saa(0.5);
  const core::Strategy a = saa.solve(inst, rng_a);
  const core::Strategy b = saa.solve(inst, rng_b);
  EXPECT_TRUE(core::validate_strategy(inst, a).empty());
  EXPECT_TRUE(core::validate_strategy(inst, b).empty());
}

TEST(IddeIp, RespectsEnvBudgetOverride) {
  ::setenv("IDDE_IP_BUDGET_MS", "12", 1);
  const baselines::IddeIp ip(500.0);
  EXPECT_DOUBLE_EQ(ip.budget_ms(), 12.0);
  ::unsetenv("IDDE_IP_BUDGET_MS");
  const baselines::IddeIp ip2(500.0);
  EXPECT_DOUBLE_EQ(ip2.budget_ms(), 500.0);
}

TEST(IddeIp, SolveTimeTracksBudget) {
  ::unsetenv("IDDE_IP_BUDGET_MS");
  const ProblemInstance inst = model::make_instance(small_params(), 30);
  const baselines::IddeIp ip(50.0);
  util::Rng rng(30);
  util::Stopwatch sw;
  (void)ip.solve(inst, rng);
  const double ms = sw.elapsed_ms();
  EXPECT_GE(ms, 40.0);
  EXPECT_LE(ms, 500.0);  // generous upper bound for CI noise
}

TEST(IddeG, StrategyDiagnosticsFilled) {
  const ProblemInstance inst = model::make_instance(small_params(), 31);
  util::Rng rng(31);
  const core::Strategy s = core::IddeG().solve(inst, rng);
  EXPECT_EQ(s.approach_name, "IDDE-G");
  EXPECT_TRUE(s.game_converged);
  EXPECT_GT(s.game_moves, 0u);
  EXPECT_GT(s.placements, 0u);
  EXPECT_TRUE(s.collaborative_delivery);
}

TEST(Approaches, NamesMatchPaperOrder) {
  const auto approaches = sim::make_paper_approaches();
  ASSERT_EQ(approaches.size(), 5u);
  EXPECT_EQ(approaches[0]->name(), "IDDE-IP");
  EXPECT_EQ(approaches[1]->name(), "IDDE-G");
  EXPECT_EQ(approaches[2]->name(), "SAA");
  EXPECT_EQ(approaches[3]->name(), "CDP");
  EXPECT_EQ(approaches[4]->name(), "DUP-G");
}

}  // namespace
