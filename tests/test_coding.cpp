// src/coding/ contract tests. The load-bearing property throughout: at
// k = 1 every coded component (profile, evaluator, planner,
// repair, resilience, DES replay) is bit-identical to its replication
// counterpart — same feasibility decisions, same floats, same tiers — so
// the coded plane is a strict generalisation, not a parallel
// implementation that drifts. k > 1 behaviour is checked against
// structural invariants (cloud cap, n-cap, ledger exactness, rescan
// convergence).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "coding/coded_evaluator.hpp"
#include "coding/coded_io.hpp"
#include "coding/coded_planner.hpp"
#include "coding/coded_profile.hpp"
#include "coding/coded_resilience.hpp"
#include "coding/fragment.hpp"
#include "core/delivery.hpp"
#include "core/greedy_delivery.hpp"
#include "core/idde_g.hpp"
#include "core/repair_planner.hpp"
#include "core/resolver.hpp"
#include "des/flow_sim.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "model/instance_builder.hpp"
#include "qos/config.hpp"
#include "sim/overload.hpp"
#include "sim/paper.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace {

using namespace idde;

model::InstanceParams sized(std::size_t n, std::size_t m, std::size_t k) {
  model::InstanceParams p = sim::paper_default_params();
  p.server_count = n;
  p.user_count = m;
  p.data_count = k;
  return p;
}

/// The replication-equivalent config: k = 1 whole-item fragments with no
/// host cap below the server count.
coding::FragmentConfig replication_config(
    const model::ProblemInstance& instance) {
  return {instance.server_count(), 1};
}

core::Strategy solve(const model::ProblemInstance& instance,
                     std::uint64_t seed) {
  util::Rng rng(seed);
  return core::IddeG().solve(instance, rng);
}

/// Copies a replication sigma into a coded (N, 1) profile.
coding::CodedDeliveryProfile as_coded(const model::ProblemInstance& instance,
                                      const core::DeliveryProfile& sigma) {
  coding::CodedDeliveryProfile coded(instance, replication_config(instance));
  for (std::size_t k = 0; k < instance.data_count(); ++k) {
    for (const std::size_t i : sigma.hosts(k)) coded.place(i, k);
  }
  return coded;
}

void expect_same_profile(const coding::CodedDeliveryProfile& coded,
                         const core::DeliveryProfile& replication) {
  ASSERT_EQ(coded.placement_count(), replication.placement_count());
  for (std::size_t k = 0; k < coded.data_count(); ++k) {
    const auto ch = coded.hosts(k);
    const auto rh = replication.hosts(k);
    ASSERT_TRUE(std::equal(ch.begin(), ch.end(), rh.begin(), rh.end()))
        << "item " << k;
  }
  for (std::size_t i = 0; i < coded.server_count(); ++i) {
    EXPECT_EQ(coded.free_kb(i), replication.free_kb(i)) << "server " << i;
  }
}

TEST(Fragment, SizeKbIsCeilDivOfExactItemKb) {
  // 10 MB = 10240 KB: k = 3 -> ceil(10240 / 3) = 3414.
  EXPECT_EQ(coding::fragment_size_kb(10.0, 3), 3414);
  EXPECT_EQ(coding::fragment_size_kb(10.0, 1), core::mb_to_kb(10.0));
  // k fragments always cover the item: k * frag_kb >= item_kb.
  util::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const double mb = 0.1 + 50.0 * rng.uniform();
    const std::size_t k = 1 + rng.index(6);
    EXPECT_GE(static_cast<std::int64_t>(k) * coding::fragment_size_kb(mb, k),
              core::mb_to_kb(mb));
  }
}

TEST(Fragment, SizeMbIsExactAtKEqualsOne) {
  EXPECT_EQ(coding::fragment_size_mb(7.25, 1), 7.25);
  EXPECT_EQ(coding::fragment_size_mb(9.0, 3), 3.0);
}

TEST(Fragment, ConfigValidity) {
  EXPECT_TRUE((coding::FragmentConfig{1, 1}).valid());
  EXPECT_TRUE((coding::FragmentConfig{4, 2}).valid());
  EXPECT_FALSE((coding::FragmentConfig{2, 3}).valid());
  EXPECT_FALSE((coding::FragmentConfig{0, 0}).valid());
  EXPECT_TRUE((coding::FragmentConfig{5, 1}).replication());
  EXPECT_FALSE((coding::FragmentConfig{4, 2}).replication());
}

// At k = 1 the coded profile must make the same feasibility decision and
// keep the same integer-KB ledger as core::DeliveryProfile through any
// interleaving of placements and removals.
TEST(CodedProfile, K1ReplaysDeliveryProfileThroughRandomMutations) {
  const auto inst = model::make_instance(sized(8, 30, 5), 42);
  coding::CodedDeliveryProfile coded(inst, replication_config(inst));
  core::DeliveryProfile replication(inst);
  util::Rng rng(7);
  for (int step = 0; step < 2000; ++step) {
    const std::size_t i = rng.index(inst.server_count());
    const std::size_t k = rng.index(inst.data_count());
    ASSERT_EQ(coded.can_place(i, k), replication.can_place(i, k));
    if (coded.placed(i, k) && rng.index(3) == 0) {
      coded.remove(i, k);
      replication.remove(i, k);
    } else if (coded.can_place(i, k)) {
      coded.place(i, k);
      replication.place(i, k);
    }
  }
  expect_same_profile(coded, replication);
}

TEST(CodedProfile, NCapRejectsExtraFragmentsDespiteHeadroom) {
  const auto inst = model::make_instance(sized(6, 20, 3), 3);
  coding::CodedDeliveryProfile coded(inst, {2, 2});
  std::size_t placed = 0;
  for (std::size_t i = 0; i < inst.server_count() && placed < 2; ++i) {
    if (coded.can_place(i, 0)) {
      coded.place(i, 0);
      ++placed;
    }
  }
  ASSERT_EQ(placed, 2u);
  EXPECT_EQ(coded.fragment_count(0), 2u);
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    EXPECT_FALSE(coded.can_place(i, 0));
  }
}

TEST(CodedProfile, LedgerChargesCeilDividedFragments) {
  const auto inst = model::make_instance(sized(6, 20, 3), 5);
  const coding::FragmentConfig config{inst.server_count(), 3};
  coding::CodedDeliveryProfile coded(inst, config);
  const std::int64_t before = coded.free_kb(0);
  ASSERT_TRUE(coded.can_place(0, 1));
  coded.place(0, 1);
  EXPECT_EQ(before - coded.free_kb(0),
            coding::fragment_size_kb(inst.data(1).size_mb, 3));
  coded.remove(0, 1);
  EXPECT_EQ(coded.free_kb(0), before);
}

TEST(CodedProfile, RestoreIsReplayOrderIndependent) {
  const auto inst = model::make_instance(sized(8, 30, 5), 13);
  const coding::FragmentConfig config{inst.server_count(), 2};
  coding::CodedDeliveryProfile live(inst, config);
  std::vector<std::pair<std::size_t, std::size_t>> placements;
  util::Rng rng(77);
  for (int tries = 0; tries < 200; ++tries) {
    const std::size_t i = rng.index(inst.server_count());
    const std::size_t k = rng.index(inst.data_count());
    if (live.can_place(i, k)) {
      live.place(i, k);
      placements.emplace_back(i, k);
    }
  }
  ASSERT_FALSE(placements.empty());
  // Shuffle and restore: the integer ledger makes order irrelevant.
  for (std::size_t i = placements.size(); i > 1; --i) {
    std::swap(placements[i - 1], placements[rng.index(i)]);
  }
  const auto restored =
      coding::CodedDeliveryProfile::restore(inst, config, placements);
  ASSERT_EQ(restored.placement_count(), live.placement_count());
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    const auto a = restored.hosts(k);
    const auto b = live.hosts(k);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    EXPECT_EQ(restored.free_kb(i), live.free_kb(i));
  }
}

// The coded greedy at k = 1 must commit the exact move sequence of the
// replication greedy: same final placements, same headroom, same total
// latency to the last bit. (gain_evaluations differs by design — the
// coded planner's terminating rescan re-scores every candidate.)
TEST(CodedPlanner, K1BitIdenticalToGreedyDeliveryPlanner) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = model::make_instance(sized(10, 50, 4), seed);
    const auto strategy = solve(inst, seed);
    core::GreedyDeliveryPlanner replication_planner(inst);
    const auto replication = replication_planner.plan(strategy.allocation);
    coding::CodedGreedyPlanner coded_planner(inst);
    const auto coded =
        coded_planner.plan(strategy.allocation, replication_config(inst));
    EXPECT_EQ(coded.placements, replication.placements);
    expect_same_profile(coded.delivery, replication.delivery);
    EXPECT_EQ(coding::coded_total_latency_seconds(inst, strategy.allocation,
                                                  coded.delivery),
              core::total_latency_seconds(inst, strategy.allocation,
                                          replication.delivery));
  }
}

TEST(CodedPlanner, K2SaturatesWithinCapsAndBeatsEmptySigma) {
  const auto inst = model::make_instance(sized(10, 50, 4), 9);
  const auto strategy = solve(inst, 9);
  coding::CodedGreedyPlanner planner(inst);
  const coding::FragmentConfig config{inst.server_count(), 2};
  const auto result = planner.plan(strategy.allocation, config);
  EXPECT_GT(result.placements, 0u);
  EXPECT_GE(result.rescan_rounds, 1u);
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    EXPECT_LE(result.delivery.fragment_count(k), config.n);
  }
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    EXPECT_GE(result.delivery.free_kb(i), 0);
  }
  // Committing fragments can only lower latency below the all-cloud sigma.
  const coding::CodedDeliveryProfile empty(inst, config);
  EXPECT_LT(coding::coded_total_latency_seconds(inst, strategy.allocation,
                                                result.delivery),
            coding::coded_total_latency_seconds(inst, strategy.allocation,
                                                empty));
}

// For any k the coded Eq. 8 never exceeds the whole-item cloud fetch:
// e = 0 (all-cloud) is always a candidate and the min is exact.
TEST(CodedEq8, NeverExceedsWholeItemCloudFetch) {
  const auto inst = model::make_instance(sized(10, 40, 5), 23);
  const auto strategy = solve(inst, 23);
  coding::CodedGreedyPlanner planner(inst);
  core::Eq8Resolver resolver(inst);
  util::Rng rng(3);
  std::vector<std::uint8_t> up(inst.server_count(), 1);
  for (const std::size_t k_of : {2u, 3u, 4u}) {
    const coding::FragmentConfig config{inst.server_count(), k_of};
    const auto plan = planner.plan(strategy.allocation, config);
    for (auto& flag : up) flag = rng.index(3) > 0 ? 1 : 0;
    for (std::size_t j = 0; j < inst.user_count(); ++j) {
      const core::ChannelSlot slot = strategy.allocation[j];
      const std::size_t serving =
          slot.allocated() ? slot.server : core::ChannelSlot::kNone;
      for (const std::size_t item : inst.requests().items_of(j)) {
        const double size = inst.data(item).size_mb;
        const core::Eq8Resolution decision = resolver.resolve(
            {.hosts = plan.delivery.hosts(item),
             .serving = serving,
             .item_mb = size,
             .fragment_mb = plan.delivery.item_fragment_mb(item),
             .k = k_of,
             .server_up = up});
        EXPECT_LE(decision.seconds,
                  inst.latency().cloud_transfer_seconds(size));
        EXPECT_EQ(decision.edge_fragments() + decision.cloud_fragments, k_of);
      }
    }
  }
}

fault::FaultProfile busy_profile() {
  fault::FaultProfile profile;
  profile.horizon_s = 45.0;
  profile.server_mtbf_s = 15.0;
  profile.server_mttr_s = 5.0;
  profile.link_mtbf_s = 12.0;
  profile.link_mttr_s = 4.0;
  profile.cloud_mtbf_s = 30.0;
  profile.cloud_mttr_s = 3.0;
  profile.replica_corruption_prob = 0.05;
  return profile;
}

// Coded repair at k = 1 resumes the greedy exactly like core::RepairPlanner
// (same survivors kept, same repairs committed, same recovered gain).
TEST(CodedRepair, K1MatchesCoreRepairPlanner) {
  const auto inst = model::make_instance(sized(10, 50, 4), 31);
  const auto strategy = solve(inst, 31);
  const auto coded_sigma = as_coded(inst, strategy.delivery);
  core::RepairPlanner core_repair(inst);
  coding::CodedRepairPlanner coded_repair(inst);
  util::Rng rng(17);
  std::vector<std::uint8_t> up(inst.server_count(), 1);
  for (int round = 0; round < 20; ++round) {
    for (auto& flag : up) flag = rng.index(4) > 0 ? 1 : 0;
    const auto expected = core_repair.replan(strategy.allocation,
                                             strategy.delivery, up);
    const auto got =
        coded_repair.replan(strategy.allocation, coded_sigma, up);
    EXPECT_EQ(got.lost_placements, expected.lost_placements);
    EXPECT_EQ(got.repair_placements, expected.repair_placements);
    EXPECT_EQ(got.recovered_gain_seconds, expected.recovered_gain_seconds);
    expect_same_profile(got.delivery, expected.delivery);
  }
}

// Analytic coded resilience at k = 1 reproduces fault::evaluate_resilience
// field-for-field under both repair policies.
TEST(CodedResilience, K1BitIdenticalToReplicationResilience) {
  for (std::uint64_t seed = 40; seed <= 42; ++seed) {
    const auto inst = model::make_instance(sized(10, 50, 4), seed);
    const auto strategy = solve(inst, seed);
    coding::CodedStrategy coded(strategy.allocation,
                                as_coded(inst, strategy.delivery));
    coded.collaborative_delivery = strategy.collaborative_delivery;
    const auto plan =
        fault::FaultPlan::generate(inst, busy_profile(), seed ^ 0x4a17);
    ASSERT_FALSE(plan.inert());
    for (const auto policy :
         {fault::RepairPolicy::kNone, fault::RepairPolicy::kGreedy}) {
      const auto expected =
          fault::evaluate_resilience(inst, strategy, plan, policy);
      const auto got =
          coding::evaluate_coded_resilience(inst, coded, plan, policy);
      EXPECT_EQ(got.fault_free_latency_ms, expected.fault_free_latency_ms);
      EXPECT_EQ(got.degraded_latency_ms, expected.degraded_latency_ms);
      EXPECT_EQ(got.availability, expected.availability);
      EXPECT_EQ(got.tier_fraction, expected.tier_fraction);
      EXPECT_EQ(got.epochs, expected.epochs);
      EXPECT_EQ(got.lost_placements, expected.lost_placements);
      EXPECT_EQ(got.repair_placements, expected.repair_placements);
    }
  }
}

TEST(CodedResilience, InertPlanShortCircuitsToFaultFree) {
  const auto inst = model::make_instance(sized(8, 40, 4), 50);
  const auto strategy = solve(inst, 50);
  coding::CodedStrategy coded(strategy.allocation,
                              as_coded(inst, strategy.delivery));
  const fault::FaultPlan inert;
  const auto report =
      coding::evaluate_coded_resilience(inst, coded, inert);
  EXPECT_EQ(report.degraded_latency_ms, report.fault_free_latency_ms);
  EXPECT_EQ(report.availability, 1.0);
  EXPECT_EQ(report.epochs, 1u);
}

// The coded DES replay at k = 1 under a non-inert plan, with or without
// admission control, replays run() bit-for-bit: same rng draws, same
// events, same floats.
TEST(CodedDes, K1BitIdenticalToFaultyReplay) {
  qos::QosConfig chaos =
      sim::chaos_qos_config(4.0, qos::SheddingPolicy::kDeadlineAware, 0.1);
  chaos.admission.service_slots = 0;  // slots have no coded meaning
  for (std::uint64_t seed = 60; seed <= 65; ++seed) {
    const auto inst = model::make_instance(sized(10, 50, 4), seed);
    const auto strategy = solve(inst, seed);
    coding::CodedStrategy coded(strategy.allocation,
                                as_coded(inst, strategy.delivery));
    coded.collaborative_delivery = strategy.collaborative_delivery;
    const auto plan =
        fault::FaultPlan::generate(inst, busy_profile(), seed ^ 0x4a17);
    ASSERT_FALSE(plan.inert());
    des::FlowSimOptions options;
    options.arrival_window_s = 15.0;
    options.fault_plan = &plan;
    if (seed > 62) options.qos = &chaos;
    const des::FlowLevelSimulator simulator(inst, options);
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    const auto expected = simulator.run(strategy, rng_a);
    const auto got = simulator.run_coded(coded, rng_b);
    ASSERT_EQ(got.flows.size(), expected.flows.size());
    for (std::size_t f = 0; f < got.flows.size(); ++f) {
      EXPECT_EQ(got.flows[f].arrival_s, expected.flows[f].arrival_s);
      EXPECT_EQ(got.flows[f].completion_s, expected.flows[f].completion_s);
      EXPECT_EQ(got.flows[f].retries, expected.flows[f].retries);
      EXPECT_EQ(got.flows[f].forced_cloud, expected.flows[f].forced_cloud);
      EXPECT_EQ(got.flows[f].from_cloud, expected.flows[f].from_cloud);
      EXPECT_EQ(got.flows[f].local_hit, expected.flows[f].local_hit);
      EXPECT_EQ(got.flows[f].tier, expected.flows[f].tier);
      EXPECT_EQ(got.flows[f].hops, expected.flows[f].hops);
    }
    EXPECT_EQ(got.mean_duration_ms, expected.mean_duration_ms);
    EXPECT_EQ(got.p99_duration_ms, expected.p99_duration_ms);
    EXPECT_EQ(got.makespan_s, expected.makespan_s);
    EXPECT_EQ(got.rate_recomputations, expected.rate_recomputations);
    EXPECT_EQ(got.availability, expected.availability);
    EXPECT_EQ(got.retry_count, expected.retry_count);
    EXPECT_EQ(got.tier_counts, expected.tier_counts);
    EXPECT_EQ(got.local_hits, expected.local_hits);
    EXPECT_EQ(got.cloud_fetches, expected.cloud_fetches);
    EXPECT_EQ(got.qos.shed, expected.qos.shed);
    EXPECT_EQ(got.qos.retries_denied, expected.qos.retries_denied);
    EXPECT_EQ(got.qos.breaker_opens, expected.qos.breaker_opens);
  }
}

// k > 1: the coded replay stays structurally sound under faults — every
// request completes finitely, the QoS invariant holds, and repeated runs
// are bit-identical (determinism of the multi-leg engine).
TEST(CodedDes, K2ReplayIsSoundAndDeterministic) {
  const auto inst = model::make_instance(sized(10, 50, 4), 70);
  const auto strategy = solve(inst, 70);
  coding::CodedGreedyPlanner planner(inst);
  const auto plan_result = planner.plan(strategy.allocation,
                                        {inst.server_count(), 2});
  coding::CodedStrategy coded(strategy.allocation,
                              coding::CodedDeliveryProfile(plan_result.delivery));
  const auto plan =
      fault::FaultPlan::generate(inst, busy_profile(), 0x70 ^ 0x4a17);
  des::FlowSimOptions options;
  options.arrival_window_s = 15.0;
  options.fault_plan = &plan;
  const des::FlowLevelSimulator simulator(inst, options);
  util::Rng rng_a(70);
  util::Rng rng_b(70);
  const auto a = simulator.run_coded(coded, rng_a);
  const auto b = simulator.run_coded(coded, rng_b);
  ASSERT_FALSE(a.flows.empty());
  for (const auto& flow : a.flows) {
    EXPECT_GE(flow.completion_s, flow.arrival_s);
    EXPECT_LT(flow.duration_s(), 1e6);
  }
  EXPECT_EQ(a.qos.offered, a.flows.size());
  EXPECT_EQ(a.qos.admitted + a.qos.shed + a.qos.rejected, a.qos.offered);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].completion_s, b.flows[f].completion_s);
    EXPECT_EQ(a.flows[f].retries, b.flows[f].retries);
  }
  EXPECT_EQ(a.mean_duration_ms, b.mean_duration_ms);
}

// Sweep coded columns must not depend on the repetition-pool thread count
// (the per-rep staging + serial fold discipline extends to coded rows).
TEST(CodedSweep, ColumnsBitIdenticalAcrossThreadCounts) {
  const fault::FaultProfile profile = busy_profile();
  const coding::FragmentConfig config{8, 2};
  std::vector<sim::SweepPoint> points{{"N=8", sized(8, 30, 3)}};
  const auto run = [&](std::size_t threads) {
    sim::SweepOptions options;
    options.repetitions = 3;
    options.threads = threads;
    options.ip_budget_ms = 5.0;
    options.fault_profile = &profile;
    options.repair_policy = fault::RepairPolicy::kGreedy;
    options.coding = &config;
    return sim::run_paper_sweep(points, options);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    ASSERT_EQ(serial[p].cells.size(), parallel[p].cells.size());
    for (std::size_t c = 0; c < serial[p].cells.size(); ++c) {
      const auto& a = serial[p].cells[c];
      const auto& b = parallel[p].cells[c];
      EXPECT_EQ(a.latency_ms.mean, b.latency_ms.mean);
      EXPECT_EQ(a.degraded_latency_ms.mean, b.degraded_latency_ms.mean);
      EXPECT_EQ(a.coded_latency_ms.mean, b.coded_latency_ms.mean);
      EXPECT_EQ(a.coded_latency_ms.half_width, b.coded_latency_ms.half_width);
      EXPECT_EQ(a.coded_degraded_latency_ms.mean,
                b.coded_degraded_latency_ms.mean);
      EXPECT_EQ(a.coded_availability.mean, b.coded_availability.mean);
      EXPECT_EQ(a.coded_latency_ms.n, b.coded_latency_ms.n);
    }
  }
}

TEST(CodedIo, RoundTripsIntactStrategy) {
  const auto inst = model::make_instance(sized(8, 30, 4), 81);
  const auto strategy = solve(inst, 81);
  coding::CodedGreedyPlanner planner(inst);
  const auto plan = planner.plan(strategy.allocation, {6, 2});
  coding::CodedStrategy coded(strategy.allocation,
                              coding::CodedDeliveryProfile(plan.delivery));
  coded.approach_name = "IDDE-G+coded";
  coded.placements = plan.placements;
  const std::string text = coding::coded_strategy_to_string(coded, 2);
  const auto back = coding::coded_strategy_from_string(inst, text);
  EXPECT_EQ(coding::coded_strategy_to_string(back, 2), text);
  EXPECT_EQ(back.delivery.config().n, 6u);
  EXPECT_EQ(back.delivery.config().k, 2u);
  // Host sets and ledger survive the round trip.
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    const auto a = back.delivery.hosts(k);
    const auto b = coded.delivery.hosts(k);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    EXPECT_EQ(back.delivery.free_kb(i), coded.delivery.free_kb(i));
  }
}

TEST(CodedIo, HostileDocumentsAreRejectedStructurally) {
  const auto inst = model::make_instance(sized(5, 12, 3), 83);
  const std::vector<std::string> hostile = {
      // wrong format tag
      R"({"format":"idde-strategy-v1","coding":{"n":1,"k":1},"allocation":[],"placements":[]})",
      // invalid shapes: k = 0, n < k, absurd n
      R"({"format":"idde-coded-strategy-v1","coding":{"n":1,"k":0},"allocation":[],"placements":[]})",
      R"({"format":"idde-coded-strategy-v1","coding":{"n":1,"k":2},"allocation":[],"placements":[]})",
      R"({"format":"idde-coded-strategy-v1","coding":{"n":99,"k":1},"allocation":[],"placements":[]})",
      // duplicate fragment placement
      R"({"format":"idde-coded-strategy-v1","coding":{"n":5,"k":2},"allocation":[],"placements":[{"server":0,"item":0},{"server":0,"item":0}]})",
      // out-of-range placement indices
      R"({"format":"idde-coded-strategy-v1","coding":{"n":5,"k":2},"allocation":[],"placements":[{"server":17,"item":0}]})",
      "",
      "[3]",
  };
  for (const auto& text : hostile) {
    EXPECT_THROW((void)coding::coded_strategy_from_string(inst, text),
                 util::JsonError)
        << text;
  }
}

TEST(CodedScenario, FragmentConfigJsonRoundTripsAndValidates) {
  const coding::FragmentConfig config{6, 4};
  const util::Json json = sim::fragment_config_to_json(config);
  const auto back = sim::fragment_config_from_json(json);
  EXPECT_EQ(back.n, 6u);
  EXPECT_EQ(back.k, 4u);
  // Defaults apply for missing fields.
  const auto defaults =
      sim::fragment_config_from_json(util::Json::parse("{}"));
  EXPECT_EQ(defaults.n, 1u);
  EXPECT_EQ(defaults.k, 1u);
  EXPECT_THROW((void)sim::fragment_config_from_json(
                   util::Json::parse(R"({"n":1,"k":2})")),
               util::JsonError);
  EXPECT_THROW((void)sim::fragment_config_from_json(
                   util::Json::parse(R"({"n":2,"k":0})")),
               util::JsonError);
}

}  // namespace
