// Cross-module property tests: physical bounds, monotonicity and
// consistency invariants checked over randomised instances (TEST_P sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "baselines/allocators.hpp"
#include "core/delivery.hpp"
#include "core/game.hpp"
#include "core/greedy_delivery.hpp"
#include "core/idde_g.hpp"
#include "core/metrics.hpp"
#include "model/instance_builder.hpp"
#include "sim/paper.hpp"

namespace {

using namespace idde;

model::InstanceParams sized(std::size_t n, std::size_t m, std::size_t k) {
  model::InstanceParams p = sim::paper_default_params();
  p.server_count = n;
  p.user_count = m;
  p.data_count = k;
  return p;
}

class SeededPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededPropertyTest, MetricsRespectPhysicalBounds) {
  const auto inst = model::make_instance(sized(12, 60, 4), GetParam());
  util::Rng rng(GetParam());
  for (const auto& approach : sim::make_paper_approaches(10.0)) {
    const auto strategy = approach->solve(inst, rng);
    const auto metrics = core::evaluate(inst, strategy);
    // Rates can never exceed the largest per-user cap.
    double max_cap = 0.0;
    for (const auto& u : inst.users()) {
      max_cap = std::max(max_cap, u.max_rate_mbps);
    }
    EXPECT_GE(metrics.avg_rate_mbps, 0.0);
    EXPECT_LE(metrics.avg_rate_mbps, max_cap + 1e-9);
    // Latency can never exceed the worst cloud fetch.
    double max_cloud_ms = 0.0;
    for (const auto& d : inst.data_items()) {
      max_cloud_ms = std::max(
          max_cloud_ms, inst.latency().cloud_transfer_seconds(d.size_mb)) ;
    }
    max_cloud_ms *= 1e3;
    EXPECT_GE(metrics.avg_latency_ms, 0.0);
    EXPECT_LE(metrics.avg_latency_ms, max_cloud_ms + 1e-9);
  }
}

TEST_P(SeededPropertyTest, EquilibriumBeatsRandomAllocationOnBenefit) {
  const auto inst = model::make_instance(sized(10, 50, 3), GetParam());
  const auto equilibrium = core::IddeUGame(inst).run();
  util::Rng rng(GetParam() * 3 + 1);
  const auto random = baselines::random_allocation(inst, rng);
  // Compare the sum of the game's own objective (Eq. 12 benefits).
  const auto total_benefit = [&](const core::AllocationProfile& alloc) {
    radio::InterferenceField field(inst.radio_env());
    for (std::size_t j = 0; j < alloc.size(); ++j) {
      if (alloc[j].allocated()) field.add_user(j, alloc[j]);
    }
    double total = 0.0;
    for (std::size_t j = 0; j < alloc.size(); ++j) {
      if (alloc[j].allocated()) total += field.benefit(j, alloc[j]);
    }
    return total;
  };
  EXPECT_GE(total_benefit(equilibrium.allocation),
            total_benefit(random) * 0.99);
}

TEST_P(SeededPropertyTest, MoreStorageNeverHurtsGreedyLatency) {
  model::InstanceParams small = sized(8, 40, 4);
  small.min_storage_mb = 30.0;
  small.max_storage_mb = 60.0;
  model::InstanceParams large = small;
  large.min_storage_mb = 200.0;
  large.max_storage_mb = 300.0;
  // Same seed => identical layout/users/requests; only storage differs.
  const auto inst_small = model::make_instance(small, GetParam());
  const auto inst_large = model::make_instance(large, GetParam());
  const auto alloc_small = core::IddeUGame(inst_small).run().allocation;
  const auto alloc_large = core::IddeUGame(inst_large).run().allocation;
  const auto plan_small =
      core::GreedyDeliveryPlanner(inst_small).plan(alloc_small);
  const auto plan_large =
      core::GreedyDeliveryPlanner(inst_large).plan(alloc_large);
  EXPECT_LE(core::average_latency_ms(inst_large, alloc_large,
                                     plan_large.delivery),
            core::average_latency_ms(inst_small, alloc_small,
                                     plan_small.delivery) +
                1e-6);
}

TEST_P(SeededPropertyTest, EvaluatorTotalsMatchFromScratchRecompute) {
  const auto inst = model::make_instance(sized(9, 45, 4), GetParam());
  const auto alloc = core::IddeUGame(inst).run().allocation;
  const auto plan = core::GreedyDeliveryPlanner(inst).plan(alloc);
  // Incremental total (inside the planner) vs a fresh evaluation.
  core::DeliveryEvaluator fresh(inst, alloc);
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    for (const std::size_t i : plan.delivery.hosts(k)) fresh.commit(i, k);
  }
  EXPECT_NEAR(fresh.total_latency_seconds(),
              core::total_latency_seconds(inst, alloc, plan.delivery), 1e-9);
}

TEST_P(SeededPropertyTest, RemovingAUserNeverLowersOthersRates) {
  const auto inst = model::make_instance(sized(8, 30, 3), GetParam());
  auto alloc = core::IddeUGame(inst).run().allocation;
  const auto before = core::user_rates(inst, alloc);
  // Remove the first allocated user.
  std::size_t removed = inst.user_count();
  for (std::size_t j = 0; j < alloc.size(); ++j) {
    if (alloc[j].allocated()) {
      alloc[j] = core::kUnallocated;
      removed = j;
      break;
    }
  }
  ASSERT_LT(removed, inst.user_count());
  const auto after = core::user_rates(inst, alloc);
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    if (j == removed) continue;
    EXPECT_GE(after[j], before[j] - 1e-9) << "user " << j;
  }
}

TEST_P(SeededPropertyTest, ShadowingZeroMatchesDeterministicModel) {
  model::InstanceParams plain = sized(8, 30, 3);
  model::InstanceParams shadow0 = plain;
  shadow0.shadowing_stddev_db = 0.0;
  const auto a = model::make_instance(plain, GetParam());
  const auto b = model::make_instance(shadow0, GetParam());
  EXPECT_EQ(a.radio_env().gain, b.radio_env().gain);
}

TEST_P(SeededPropertyTest, ShadowingPerturbsGainsDeterministically) {
  model::InstanceParams shadowed = sized(8, 30, 3);
  shadowed.shadowing_stddev_db = 6.0;
  const auto a = model::make_instance(shadowed, GetParam());
  const auto b = model::make_instance(shadowed, GetParam());
  EXPECT_EQ(a.radio_env().gain, b.radio_env().gain);  // same seed
  model::InstanceParams plain = sized(8, 30, 3);
  const auto c = model::make_instance(plain, GetParam());
  EXPECT_NE(a.radio_env().gain, c.radio_env().gain);  // shadowing acts
  // Gains stay positive.
  for (const double g : a.radio_env().gain) EXPECT_GT(g, 0.0);
}

TEST_P(SeededPropertyTest, CloudSpeedScalesCloudOnlyLatency) {
  model::InstanceParams slow = sized(8, 30, 3);
  slow.cloud_speed_mbps = 300.0;
  model::InstanceParams fast = slow;
  fast.cloud_speed_mbps = 600.0;
  const auto a = model::make_instance(slow, GetParam());
  const auto b = model::make_instance(fast, GetParam());
  const core::AllocationProfile none_a(a.user_count(), core::kUnallocated);
  const core::DeliveryProfile empty_a(a);
  const core::DeliveryProfile empty_b(b);
  const double la = core::average_latency_ms(a, none_a, empty_a);
  const double lb = core::average_latency_ms(b, none_a, empty_b);
  EXPECT_NEAR(la, 2.0 * lb, 1e-6);  // half the speed, twice the latency
}

// Satellite of the coded-placement PR: the integer-KB ledger makes
// place/remove replay exact. Over 1000 random placement/removal
// sequences, the live profile's headroom must equal a profile recomputed
// from the surviving placements alone (restore(), shuffled order) — no
// float drift, no order dependence.
TEST(DeliveryLedger, ReplayEqualsRecomputeOverRandomSequences) {
  const auto inst = model::make_instance(sized(8, 30, 5), 4242);
  util::Rng rng(0x1ed6e2ULL);
  for (int sequence = 0; sequence < 1000; ++sequence) {
    core::DeliveryProfile live(inst);
    std::vector<std::pair<std::size_t, std::size_t>> placements;
    const std::size_t steps = 1 + rng.index(60);
    for (std::size_t step = 0; step < steps; ++step) {
      const std::size_t i = rng.index(inst.server_count());
      const std::size_t k = rng.index(inst.data_count());
      if (live.placed(i, k) && rng.index(3) == 0) {
        live.remove(i, k);
        placements.erase(
            std::find(placements.begin(), placements.end(),
                      std::make_pair(i, k)));
      } else if (live.can_place(i, k)) {
        live.place(i, k);
        placements.emplace_back(i, k);
      }
    }
    // Shuffle the surviving placements: replay order must not matter.
    for (std::size_t i = placements.size(); i > 1; --i) {
      std::swap(placements[i - 1], placements[rng.index(i)]);
    }
    const auto recomputed =
        core::DeliveryProfile::restore(inst, live.shape(), placements);
    ASSERT_EQ(recomputed.placement_count(), live.placement_count());
    for (std::size_t i = 0; i < inst.server_count(); ++i) {
      ASSERT_EQ(recomputed.free_kb(i), live.free_kb(i))
          << "sequence " << sequence << " server " << i;
    }
    for (std::size_t k = 0; k < inst.data_count(); ++k) {
      const auto a = recomputed.hosts(k);
      const auto b = live.hosts(k);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         ::testing::Range<std::uint64_t>(9000, 9008));

TEST(EdgeCases, SingleUserSingleServer) {
  model::InstanceParams p = sized(1, 1, 1);
  const auto inst = model::make_instance(p, 1);
  util::Rng rng(1);
  const auto strategy = core::IddeG().solve(inst, rng);
  const auto metrics = core::evaluate(inst, strategy);
  if (!inst.covering_servers(0).empty()) {
    EXPECT_EQ(metrics.allocated_users, 1u);
    EXPECT_NEAR(metrics.avg_rate_mbps, inst.user(0).max_rate_mbps, 1e-6);
  }
}

TEST(EdgeCases, SingleDataItem) {
  const auto inst = model::make_instance(sized(6, 20, 1), 2);
  util::Rng rng(2);
  const auto strategy = core::IddeG().solve(inst, rng);
  EXPECT_GT(strategy.placements, 0u);
}

TEST(EdgeCases, TinyStorageStillFeasible) {
  model::InstanceParams p = sized(6, 20, 3);
  p.min_storage_mb = 1.0;
  p.max_storage_mb = 5.0;  // nothing fits (items are >= 30 MB)
  const auto inst = model::make_instance(p, 3);
  util::Rng rng(3);
  const auto strategy = core::IddeG().solve(inst, rng);
  EXPECT_EQ(strategy.placements, 0u);
  const auto metrics = core::evaluate(inst, strategy);
  // Everything comes from the cloud.
  core::DeliveryEvaluator cloud(inst, strategy.allocation);
  EXPECT_NEAR(metrics.avg_latency_ms,
              cloud.average_latency_seconds() * 1e3, 1e-9);
}

TEST(EdgeCases, ManyChannelsEliminateInCellInterference) {
  model::InstanceParams few = sized(6, 40, 3);
  few.channels_per_server = 1;
  model::InstanceParams many = sized(6, 40, 3);
  many.channels_per_server = 12;
  double rate_few = 0.0;
  double rate_many = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto a = model::make_instance(few, 40 + seed);
    const auto b = model::make_instance(many, 40 + seed);
    rate_few += core::average_data_rate_mbps(a, core::IddeUGame(a).run().allocation);
    rate_many +=
        core::average_data_rate_mbps(b, core::IddeUGame(b).run().allocation);
  }
  EXPECT_GT(rate_many, rate_few);
}

}  // namespace
