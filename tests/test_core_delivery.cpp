// Phase-2 tests: delivery profile bookkeeping, the incremental evaluator,
// submodularity, lazy vs naive greedy equivalence, and the approximation
// quality against the exhaustive oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/game.hpp"
#include "core/greedy_delivery.hpp"
#include "core/metrics.hpp"
#include "core/idde_g.hpp"
#include "core/validation.hpp"
#include "model/instance_builder.hpp"
#include "oracles/eq8_reference.hpp"
#include "oracles/naive_greedy.hpp"
#include "solver/exhaustive.hpp"

namespace {

using namespace idde;
using core::AllocationProfile;
using core::DeliveryEvaluator;
using core::DeliveryProfile;
using core::GreedyDeliveryPlanner;
using core::IddeUGame;
using model::InstanceParams;
using model::ProblemInstance;

InstanceParams tiny_params(std::size_t n = 6, std::size_t m = 18,
                           std::size_t k = 3) {
  InstanceParams p;
  p.server_count = n;
  p.user_count = m;
  p.data_count = k;
  return p;
}

AllocationProfile equilibrium(const ProblemInstance& inst) {
  return IddeUGame(inst).run().allocation;
}

TEST(DeliveryProfile, PlacementBookkeeping) {
  const ProblemInstance inst = model::make_instance(tiny_params(), 1);
  DeliveryProfile delivery(inst);
  EXPECT_EQ(delivery.placement_count(), 0u);
  EXPECT_FALSE(delivery.placed(0, 0));
  ASSERT_TRUE(delivery.can_place(0, 0));
  const double before = delivery.free_mb(0);
  delivery.place(0, 0);
  EXPECT_TRUE(delivery.placed(0, 0));
  EXPECT_FALSE(delivery.can_place(0, 0));  // duplicate rejected
  EXPECT_DOUBLE_EQ(delivery.free_mb(0), before - inst.data(0).size_mb);
  EXPECT_EQ(delivery.placement_count(), 1u);
  ASSERT_EQ(delivery.hosts(0).size(), 1u);
  EXPECT_EQ(delivery.hosts(0)[0], 0u);
}

TEST(DeliveryProfile, HostsStaySorted) {
  const ProblemInstance inst = model::make_instance(tiny_params(), 2);
  DeliveryProfile delivery(inst);
  for (const std::size_t i : {3u, 0u, 2u}) {
    if (delivery.can_place(i, 1)) delivery.place(i, 1);
  }
  const auto hosts = delivery.hosts(1);
  EXPECT_TRUE(std::is_sorted(hosts.begin(), hosts.end()));
}

TEST(DeliveryProfile, StorageConstraintEnforced) {
  InstanceParams p = tiny_params();
  p.min_storage_mb = 40.0;
  p.max_storage_mb = 70.0;   // at most two 30 MB items, one 60 MB item
  p.data_size_choices_mb = {60.0};
  const ProblemInstance inst = model::make_instance(p, 3);
  DeliveryProfile delivery(inst);
  ASSERT_TRUE(delivery.can_place(0, 0));
  delivery.place(0, 0);
  // A second 60 MB item cannot fit (storage <= 70 MB).
  for (std::size_t k = 1; k < inst.data_count(); ++k) {
    EXPECT_FALSE(delivery.can_place(0, k));
  }
}

TEST(DeliveryEvaluator, EmptySigmaIsAllCloud) {
  const ProblemInstance inst = model::make_instance(tiny_params(), 4);
  const AllocationProfile alloc = equilibrium(inst);
  DeliveryEvaluator evaluator(inst, alloc);
  double expected = 0.0;
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    for (const std::size_t k : inst.requests().items_of(j)) {
      expected += inst.latency().cloud_transfer_seconds(inst.data(k).size_mb);
    }
  }
  EXPECT_NEAR(evaluator.total_latency_seconds(), expected, 1e-9);
  EXPECT_EQ(evaluator.request_count(), inst.requests().total_requests());
}

TEST(DeliveryEvaluator, EmptySigmaPinsEveryRequestToCloudLatency) {
  // Pins the Eq. 8 fallback documented at delivery.hpp's constructor: with
  // an empty sigma EVERY request individually sits at exactly the cloud
  // latency — not just the total (which could mask compensating errors).
  const ProblemInstance inst = model::make_instance(tiny_params(), 4);
  const AllocationProfile alloc = equilibrium(inst);
  DeliveryEvaluator evaluator(inst, alloc);
  std::size_t id = 0;
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    for (const std::size_t k : inst.requests().items_of(j)) {
      const double size = inst.data(k).size_mb;
      const double cloud = inst.latency().cloud_transfer_seconds(size);
      EXPECT_DOUBLE_EQ(evaluator.request_latency_seconds(id), cloud)
          << "request " << id;
      if (alloc[j].allocated()) {
        // Eq. 8's min over an empty replica set is the cloud term itself.
        EXPECT_DOUBLE_EQ(
            oracle::best_delivery_seconds(inst.latency(), {},
                                          alloc[j].server, size),
            cloud);
      }
      ++id;
    }
  }
  EXPECT_EQ(id, evaluator.request_count());
}

TEST(DeliveryEvaluator, CommitRealisesPredictedGain) {
  const ProblemInstance inst = model::make_instance(tiny_params(), 5);
  const AllocationProfile alloc = equilibrium(inst);
  DeliveryEvaluator evaluator(inst, alloc);
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    for (std::size_t k = 0; k < inst.data_count(); ++k) {
      const double predicted = evaluator.gain_seconds(i, k);
      const double before = evaluator.total_latency_seconds();
      const double realised = evaluator.commit(i, k);
      EXPECT_NEAR(predicted, realised, 1e-9);
      EXPECT_NEAR(evaluator.total_latency_seconds(), before - realised, 1e-9);
    }
  }
}

TEST(DeliveryEvaluator, GainsAreSubmodular) {
  // Monotone non-increasing marginal gains: committing any placement never
  // increases the gain of another candidate.
  const ProblemInstance inst = model::make_instance(tiny_params(), 6);
  const AllocationProfile alloc = equilibrium(inst);
  DeliveryEvaluator evaluator(inst, alloc);
  std::vector<double> before;
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    for (std::size_t k = 0; k < inst.data_count(); ++k) {
      before.push_back(evaluator.gain_seconds(i, k));
    }
  }
  evaluator.commit(0, 0);
  std::size_t idx = 0;
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    for (std::size_t k = 0; k < inst.data_count(); ++k) {
      EXPECT_LE(evaluator.gain_seconds(i, k), before[idx] + 1e-9);
      ++idx;
    }
  }
}

TEST(DeliveryEvaluator, NonCollaborativeOnlyLocalReplicasHelp) {
  const ProblemInstance inst = model::make_instance(tiny_params(), 7);
  const AllocationProfile alloc = equilibrium(inst);
  DeliveryEvaluator evaluator(inst, alloc, /*collaborative=*/false);
  // Find a (server, item) pair with no allocated requester on that server:
  // its gain must be exactly zero under local-or-cloud semantics.
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    for (std::size_t k = 0; k < inst.data_count(); ++k) {
      bool has_local_requester = false;
      for (const std::size_t j : inst.requests().users_of(k)) {
        if (alloc[j].allocated() && alloc[j].server == i) {
          has_local_requester = true;
          break;
        }
      }
      if (!has_local_requester) {
        EXPECT_EQ(evaluator.gain_seconds(i, k), 0.0);
      } else {
        EXPECT_GT(evaluator.gain_seconds(i, k), 0.0);
      }
    }
  }
}

TEST(DeliveryEvaluator, CollaborativeGainsDominateLocalOnly) {
  const ProblemInstance inst = model::make_instance(tiny_params(), 8);
  const AllocationProfile alloc = equilibrium(inst);
  DeliveryEvaluator collab(inst, alloc, true);
  DeliveryEvaluator local(inst, alloc, false);
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    for (std::size_t k = 0; k < inst.data_count(); ++k) {
      EXPECT_GE(collab.gain_seconds(i, k), local.gain_seconds(i, k) - 1e-9);
    }
  }
}

TEST(GreedyDelivery, LazyAndNaiveProduceSameLatency) {
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    const ProblemInstance inst = model::make_instance(tiny_params(8, 30, 4),
                                                      seed);
    const AllocationProfile alloc = equilibrium(inst);
    GreedyDeliveryPlanner planner(inst);
    const auto lazy = planner.plan(alloc);
    const auto naive = oracle::naive_greedy_plan(inst, alloc);
    const double lazy_latency =
        core::total_latency_seconds(inst, alloc, lazy.delivery);
    const double naive_latency =
        core::total_latency_seconds(inst, alloc, naive.delivery);
    // Both are valid greedy executions; ties in the ratio can be broken
    // differently, so compare achieved latency, not placements.
    EXPECT_NEAR(lazy_latency, naive_latency, 1e-6) << "seed " << seed;
  }
}

TEST(GreedyDelivery, LazyEvaluatesFarFewerCandidates) {
  const ProblemInstance inst = model::make_instance(tiny_params(12, 60, 6), 16);
  const AllocationProfile alloc = equilibrium(inst);
  GreedyDeliveryPlanner planner(inst);
  const auto lazy = planner.plan(alloc);
  const auto naive = oracle::naive_greedy_plan(inst, alloc);
  EXPECT_LT(lazy.gain_evaluations, naive.gain_evaluations / 2);
}

// The planner owns reusable scratch (candidate heap, evaluator) that is
// rewound per call — reusing one planner across allocations must give the
// exact plan a fresh planner gives, in the exact order (the heap pops the
// same sequence whether the backing vector is new or recycled).
TEST(GreedyDelivery, ReusedPlannerMatchesFreshPlanner) {
  for (std::uint64_t seed = 40; seed < 44; ++seed) {
    const ProblemInstance inst = model::make_instance(tiny_params(8, 30, 4),
                                                      seed);
    const AllocationProfile alloc = equilibrium(inst);
    GreedyDeliveryPlanner planner(inst);
    const auto first = planner.plan(alloc);
    const auto again = planner.plan(alloc);  // warm scratch, same input
    const auto fresh = GreedyDeliveryPlanner(inst).plan(alloc);
    for (const auto* other : {&again, &fresh}) {
      EXPECT_EQ(first.gain_evaluations, other->gain_evaluations)
          << "seed " << seed;
      EXPECT_EQ(first.delivery.placement_count(),
                other->delivery.placement_count())
          << "seed " << seed;
      for (std::size_t k = 0; k < inst.data_count(); ++k) {
        for (std::size_t i = 0; i < inst.server_count(); ++i) {
          EXPECT_EQ(first.delivery.placed(i, k), other->delivery.placed(i, k))
              << "seed " << seed << " server " << i << " item " << k;
        }
      }
    }
  }
}

// plan() is replan() from the empty sigma with every server up: the same
// placements, the same headroom bits and the same placement count.
TEST(GreedyDelivery, PlanEqualsReplanFromEmptySigma) {
  for (std::uint64_t seed = 50; seed < 54; ++seed) {
    const ProblemInstance inst = model::make_instance(tiny_params(8, 30, 4),
                                                      seed);
    const AllocationProfile alloc = equilibrium(inst);
    const std::vector<std::uint8_t> all_up(inst.server_count(), 1);
    const auto planned = GreedyDeliveryPlanner(inst).plan(alloc);
    const auto replanned =
        GreedyDeliveryPlanner(inst).replan(alloc, DeliveryProfile(inst), all_up);
    EXPECT_EQ(replanned.lost_placements, 0u) << "seed " << seed;
    EXPECT_EQ(replanned.repair_placements, planned.placements)
        << "seed " << seed;
    ASSERT_EQ(replanned.delivery.placement_count(),
              planned.delivery.placement_count())
        << "seed " << seed;
    for (std::size_t k = 0; k < inst.data_count(); ++k) {
      const auto a = replanned.delivery.hosts(k);
      const auto b = planned.delivery.hosts(k);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "seed " << seed << " item " << k;
    }
    for (std::size_t i = 0; i < inst.server_count(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(replanned.delivery.free_mb(i)),
                std::bit_cast<std::uint64_t>(planned.delivery.free_mb(i)))
          << "seed " << seed << " server " << i;
    }
  }
}

TEST(GreedyDelivery, RespectsStorage) {
  const ProblemInstance inst = model::make_instance(tiny_params(), 17);
  const AllocationProfile alloc = equilibrium(inst);
  const auto result = GreedyDeliveryPlanner(inst).plan(alloc);
  std::vector<double> used(inst.server_count(), 0.0);
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    for (const std::size_t i : result.delivery.hosts(k)) {
      used[i] += inst.data(k).size_mb;
    }
  }
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    EXPECT_LE(used[i], inst.server(i).storage_mb + 1e-9);
  }
}

TEST(GreedyDelivery, NeverWorseThanCloudOnly) {
  const ProblemInstance inst = model::make_instance(tiny_params(), 18);
  const AllocationProfile alloc = equilibrium(inst);
  const auto result = GreedyDeliveryPlanner(inst).plan(alloc);
  DeliveryEvaluator cloud_only(inst, alloc);
  EXPECT_LT(core::total_latency_seconds(inst, alloc, result.delivery),
            cloud_only.total_latency_seconds());
}

TEST(GreedyDelivery, UnallocatedUsersGetCloudLatency) {
  const ProblemInstance inst = model::make_instance(tiny_params(), 19);
  const AllocationProfile none(inst.user_count(), core::kUnallocated);
  const auto result = GreedyDeliveryPlanner(inst).plan(none);
  // With nobody allocated there is no gain anywhere: greedy places nothing.
  EXPECT_EQ(result.placements, 0u);
}

TEST(GreedyDelivery, ApproximationAgainstOptimalOracle) {
  // Theorems 6/7 guarantee a constant-factor approximation of the optimal
  // latency *reduction*; on small instances greedy is nearly optimal.
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    InstanceParams p = tiny_params(4, 12, 3);  // N*K = 12 decisions
    p.min_storage_mb = 60.0;
    p.max_storage_mb = 120.0;
    const ProblemInstance inst = model::make_instance(p, seed);
    const AllocationProfile alloc = equilibrium(inst);
    const auto greedy = GreedyDeliveryPlanner(inst).plan(alloc);
    const DeliveryProfile optimal = solver::optimal_delivery(inst, alloc);

    DeliveryEvaluator base(inst, alloc);
    const double cloud = base.total_latency_seconds();
    const double greedy_latency =
        core::total_latency_seconds(inst, alloc, greedy.delivery);
    const double optimal_latency =
        core::total_latency_seconds(inst, alloc, optimal);
    const double greedy_reduction = cloud - greedy_latency;
    const double optimal_reduction = cloud - optimal_latency;
    ASSERT_GE(optimal_reduction, greedy_reduction - 1e-9);
    // The paper's bound is (e-1)/2e ~ 0.316; greedy is far better in
    // practice — require at least 80% of the optimal reduction.
    EXPECT_GE(greedy_reduction, 0.8 * optimal_reduction) << "seed " << seed;
  }
}

TEST(Validation, AcceptsGreedyStrategy) {
  const ProblemInstance inst = model::make_instance(tiny_params(), 27);
  const AllocationProfile alloc = equilibrium(inst);
  const auto greedy = GreedyDeliveryPlanner(inst).plan(alloc);
  core::Strategy strategy{alloc, greedy.delivery};
  EXPECT_TRUE(core::validate_strategy(inst, strategy).empty());
}

TEST(Validation, RejectsOutOfCoverageAllocation) {
  const ProblemInstance inst = model::make_instance(tiny_params(), 28);
  AllocationProfile alloc(inst.user_count(), core::kUnallocated);
  // Find a user and a server that does NOT cover it.
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    const auto& covering = inst.covering_servers(j);
    for (std::size_t i = 0; i < inst.server_count(); ++i) {
      if (!std::binary_search(covering.begin(), covering.end(), i)) {
        alloc[j] = core::ChannelSlot{i, 0};
        core::Strategy s{alloc, DeliveryProfile(inst)};
        EXPECT_FALSE(core::validate_strategy(inst, s).empty());
        return;
      }
    }
  }
  GTEST_SKIP() << "every server covers every user in this draw";
}

TEST(Validation, RejectsBadChannel) {
  const ProblemInstance inst = model::make_instance(tiny_params(), 29);
  AllocationProfile alloc(inst.user_count(), core::kUnallocated);
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    if (!inst.covering_servers(j).empty()) {
      alloc[j] = core::ChannelSlot{inst.covering_servers(j)[0],
                                   inst.radio_env().channels_per_server};
      break;
    }
  }
  core::Strategy s{alloc, DeliveryProfile(inst)};
  EXPECT_FALSE(core::validate_strategy(inst, s).empty());
}

}  // namespace
