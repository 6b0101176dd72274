// Flow-level DES: conservation, contention behaviour, agreement with the
// analytic model in the uncontended limit, and tail/fault metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/idde_g.hpp"
#include "core/metrics.hpp"
#include "core/resolver.hpp"
#include "des/flow_sim.hpp"
#include "fault/fault_plan.hpp"
#include "model/instance_builder.hpp"
#include "obs/obs.hpp"
#include "sim/paper.hpp"

namespace {

using namespace idde;

model::InstanceParams small_params() {
  model::InstanceParams p = sim::paper_default_params();
  p.server_count = 10;
  p.user_count = 50;
  p.data_count = 4;
  return p;
}

struct Solved {
  model::ProblemInstance instance;
  core::Strategy strategy;
};

Solved solved_instance(std::uint64_t seed) {
  model::ProblemInstance instance = model::make_instance(small_params(), seed);
  util::Rng rng(seed);
  core::Strategy strategy = core::IddeG().solve(instance, rng);
  return Solved{std::move(instance), std::move(strategy)};
}

TEST(FlowSim, OneFlowPerRequest) {
  const auto s = solved_instance(1);
  des::FlowLevelSimulator sim(s.instance);
  util::Rng rng(1);
  const auto result = sim.run(s.strategy, rng);
  EXPECT_EQ(result.flows.size(), s.instance.requests().total_requests());
  EXPECT_EQ(result.flows.size(),
            result.local_hits + result.cloud_fetches +
                (result.flows.size() - result.local_hits -
                 result.cloud_fetches));
  for (const auto& flow : result.flows) {
    EXPECT_GE(flow.completion_s, flow.arrival_s);
  }
}

TEST(FlowSim, LocalHitsAreInstantCloudMatchesAnalytic) {
  const auto s = solved_instance(2);
  des::FlowLevelSimulator sim(s.instance);
  util::Rng rng(2);
  const auto result = sim.run(s.strategy, rng);
  for (const auto& flow : result.flows) {
    if (flow.local_hit) {
      EXPECT_DOUBLE_EQ(flow.duration_s(), 0.0);
      EXPECT_EQ(flow.hops, 0u);
    }
    if (flow.from_cloud) {
      const double expected = s.instance.latency().cloud_transfer_seconds(
          s.instance.data(flow.item).size_mb);
      EXPECT_NEAR(flow.duration_s(), expected, 1e-9);
    }
  }
}

TEST(FlowSim, UncontendedLimitMatchesAnalyticLatency) {
  // With enormous link capacity every flow gets its full analytic rate,
  // so the DES mean must converge to the analytic L_avg.
  const auto s = solved_instance(3);
  des::FlowSimOptions options;
  options.link_capacity_scale = 1e6;
  des::FlowLevelSimulator sim(s.instance, options);
  util::Rng rng(3);
  const auto result = sim.run(s.strategy, rng);
  const double analytic_ms = core::average_latency_ms(
      s.instance, s.strategy.allocation, s.strategy.delivery);
  // Not exact: the analytic model books each routed transfer at the sum of
  // per-hop times, while scaled-up capacity makes it ~0. Local hits and
  // cloud legs dominate both, so the means must be close.
  EXPECT_LE(result.mean_duration_ms, analytic_ms + 1e-6);
}

TEST(FlowSim, BatchArrivalContentionNeverFasterThanAnalytic) {
  // At scale 1.0 with everything arriving at t=0, sharing can only slow
  // transfers down relative to the exclusive-bandwidth analytic model.
  const auto s = solved_instance(4);
  des::FlowLevelSimulator sim(s.instance);
  util::Rng rng(4);
  const auto result = sim.run(s.strategy, rng);
  const double analytic_ms = core::average_latency_ms(
      s.instance, s.strategy.allocation, s.strategy.delivery);
  EXPECT_GE(result.mean_duration_ms, analytic_ms - 1e-6);
}

TEST(FlowSim, TighterLinksIncreaseLatency) {
  const auto s = solved_instance(5);
  util::Rng rng(5);
  des::FlowSimOptions normal;
  des::FlowSimOptions tight;
  tight.link_capacity_scale = 0.05;
  const auto fast = des::FlowLevelSimulator(s.instance, normal)
                        .run(s.strategy, rng);
  const auto slow = des::FlowLevelSimulator(s.instance, tight)
                        .run(s.strategy, rng);
  EXPECT_GE(slow.mean_duration_ms, fast.mean_duration_ms);
  EXPECT_GE(slow.makespan_s, fast.makespan_s);
}

TEST(FlowSim, SpreadArrivalsReduceContention) {
  const auto s = solved_instance(6);
  des::FlowSimOptions burst;
  burst.link_capacity_scale = 0.1;
  des::FlowSimOptions spread = burst;
  spread.arrival_window_s = 60.0;
  util::Rng rng_a(6);
  util::Rng rng_b(6);
  const auto burst_result =
      des::FlowLevelSimulator(s.instance, burst).run(s.strategy, rng_a);
  const auto spread_result =
      des::FlowLevelSimulator(s.instance, spread).run(s.strategy, rng_b);
  // Spreading arrivals over a minute lowers per-flow contention.
  EXPECT_LE(spread_result.mean_duration_ms,
            burst_result.mean_duration_ms + 1e-9);
}

TEST(FlowSim, DeterministicWithoutArrivalJitter) {
  const auto s = solved_instance(7);
  des::FlowLevelSimulator sim(s.instance);
  util::Rng rng_a(1);
  util::Rng rng_b(2);  // rng unused when arrival_window_s == 0
  const auto a = sim.run(s.strategy, rng_a);
  const auto b = sim.run(s.strategy, rng_b);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_DOUBLE_EQ(a.flows[f].completion_s, b.flows[f].completion_s);
  }
}

TEST(FlowSim, TailMetricsAreOrderedAndMaxIsExact) {
  const auto s = solved_instance(9);
  des::FlowSimOptions options;
  options.link_capacity_scale = 0.1;  // contention spreads the tail
  options.arrival_window_s = 5.0;
  des::FlowLevelSimulator sim(s.instance, options);
  util::Rng rng(9);
  const auto result = sim.run(s.strategy, rng);
  EXPECT_LE(result.mean_duration_ms, result.max_duration_ms + 1e-12);
  EXPECT_LE(result.p95_duration_ms, result.p99_duration_ms + 1e-12);
  EXPECT_LE(result.p99_duration_ms, result.max_duration_ms + 1e-12);
  double manual_max = 0.0;
  for (const auto& flow : result.flows) {
    manual_max = std::max(manual_max, flow.duration_s() * 1e3);
  }
  EXPECT_DOUBLE_EQ(result.max_duration_ms, manual_max);
}

TEST(FlowSim, InertFaultPlanIsBitIdenticalToNoPlan) {
  // Zero-cost-when-disabled: attaching an all-zero FaultPlan must take the
  // exact fault-free code path — same rng draws, same float ops, so every
  // metric is bit-identical, not merely close.
  const auto s = solved_instance(10);
  const fault::FaultPlan inert_plan;
  ASSERT_TRUE(inert_plan.inert());
  des::FlowSimOptions base;
  base.arrival_window_s = 10.0;
  base.link_capacity_scale = 0.2;
  des::FlowSimOptions with_plan = base;
  with_plan.fault_plan = &inert_plan;
  util::Rng rng_a(10);
  util::Rng rng_b(10);
  const auto a = des::FlowLevelSimulator(s.instance, base).run(s.strategy,
                                                               rng_a);
  const auto b =
      des::FlowLevelSimulator(s.instance, with_plan).run(s.strategy, rng_b);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].arrival_s, b.flows[f].arrival_s);
    EXPECT_EQ(a.flows[f].completion_s, b.flows[f].completion_s);
    EXPECT_EQ(a.flows[f].retries, b.flows[f].retries);
    EXPECT_EQ(a.flows[f].tier, b.flows[f].tier);
  }
  EXPECT_EQ(a.mean_duration_ms, b.mean_duration_ms);
  EXPECT_EQ(a.p95_duration_ms, b.p95_duration_ms);
  EXPECT_EQ(a.p99_duration_ms, b.p99_duration_ms);
  EXPECT_EQ(a.max_duration_ms, b.max_duration_ms);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.rate_recomputations, b.rate_recomputations);
  EXPECT_EQ(a.availability, 1.0);
  EXPECT_EQ(b.availability, 1.0);
  EXPECT_EQ(b.retry_count, 0u);
  EXPECT_EQ(b.tier_counts[0], b.flows.size());
}

TEST(FlowSim, FluidSolvesRunAndSkippedSumToTheLoopSteps) {
  // A faults-only replay: steps that end at an epoch boundary nobody's leg
  // crosses, or at an arrival served without a routed leg, leave the leg
  // set as it was, and reuse the last solve's rates.
  const auto s = solved_instance(12);
  fault::FaultProfile profile;
  profile.horizon_s = 20.0;
  profile.server_mtbf_s = 10.0;
  profile.server_mttr_s = 2.0;
  profile.link_mtbf_s = 8.0;
  profile.link_mttr_s = 2.0;
  const auto plan = fault::FaultPlan::generate(s.instance, profile, 12);
  des::FlowSimOptions options;
  options.arrival_window_s = 10.0;
  options.link_capacity_scale = 0.05;
  options.fault_plan = &plan;
  obs::set_enabled(true);
  obs::reset_all();
  util::Rng rng(12);
  const auto result =
      des::FlowLevelSimulator(s.instance, options).run(s.strategy, rng);
  const auto counter = [](const char* name) -> std::uint64_t {
    return obs::MetricsRegistry::global().counter(name).value();
  };
  const std::uint64_t steps = counter("des.rate_recomputations_total");
  const std::uint64_t solves = counter("des.fluid_solves_total");
  const std::uint64_t skipped = counter("des.fluid_solves_skipped_total");
  obs::set_enabled(false);
  obs::reset_all();
  EXPECT_GT(result.retry_count, 0u);
#if IDDE_OBS
  EXPECT_EQ(steps, result.rate_recomputations);
  EXPECT_EQ(solves + skipped, steps);
  EXPECT_GT(solves, 0u);
  EXPECT_GT(skipped, 0u);
#else
  (void)steps, (void)solves, (void)skipped;
#endif
}

TEST(FlowSim, NonCollaborativeStrategiesNeverRoute) {
  const auto inst = model::make_instance(small_params(), 8);
  util::Rng rng(8);
  core::Strategy strategy = core::IddeG().solve(inst, rng);
  strategy.collaborative_delivery = false;
  des::FlowLevelSimulator sim(inst);
  const auto result = sim.run(strategy, rng);
  for (const auto& flow : result.flows) {
    EXPECT_TRUE(flow.local_hit || flow.from_cloud);
    EXPECT_EQ(flow.hops, 0u);
  }
}

/// `base` with every request dropped but user `user` asking for `item`.
model::ProblemInstance lone_request(const model::ProblemInstance& base,
                                    std::size_t user, std::size_t item) {
  model::RequestMatrix requests(base.user_count(), base.data_count());
  requests.add_request(user, item);
  return model::ProblemInstance(base.servers(), base.users(),
                                base.data_items(), std::move(requests),
                                base.graph(), base.latency(), base.radio_env());
}

/// A routed record of a fault-free burst replay whose route has `hops`
/// links (any count >= 2 when `multi_hop`), searched over seeds.
struct RoutedPick {
  Solved solved;
  std::size_t user = 0;
  std::size_t item = 0;
};

std::optional<RoutedPick> routed_request(bool multi_hop) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Solved s = solved_instance(seed);
    util::Rng rng(seed);
    const auto result = des::FlowLevelSimulator(s.instance).run(s.strategy,
                                                                rng);
    for (const des::FlowRecord& flow : result.flows) {
      if (flow.local_hit || flow.from_cloud) continue;
      if (multi_hop ? flow.hops >= 2 : flow.hops == 1) {
        return RoutedPick{std::move(s), flow.user, flow.item};
      }
    }
  }
  return std::nullopt;
}

/// The resolver's uncontended Eq. 8 seconds for the lone request.
double eq8_seconds(const model::ProblemInstance& instance,
                   const core::Strategy& strategy, std::size_t user,
                   std::size_t item) {
  core::Eq8Resolver resolver(instance);
  const double size = instance.data(item).size_mb;
  const core::Eq8Resolution resolution =
      resolver.estimate({.hosts = strategy.delivery.hosts(item),
                         .serving = strategy.allocation[user].server,
                         .item_mb = size,
                         .fragment_mb = size});
  EXPECT_NE(resolution.source(), core::kCloudSource);
  return resolution.seconds;
}

TEST(FlowSim, LoneSingleHopRequestMatchesEq8) {
  // One leg alone on one link gets the link's whole capacity, which is the
  // resolver's per-MB edge cost inverted: the DES and Eq. 8 agree exactly.
  const std::optional<RoutedPick> pick = routed_request(false);
  ASSERT_TRUE(pick.has_value());
  const model::ProblemInstance lone =
      lone_request(pick->solved.instance, pick->user, pick->item);
  util::Rng rng(1);
  const auto result =
      des::FlowLevelSimulator(lone).run(pick->solved.strategy, rng);
  ASSERT_EQ(result.flows.size(), 1u);
  const des::FlowRecord& flow = result.flows[0];
  ASSERT_FALSE(flow.local_hit || flow.from_cloud);
  ASSERT_EQ(flow.hops, 1u);
  const double analytic =
      eq8_seconds(lone, pick->solved.strategy, pick->user, pick->item);
  EXPECT_LE(std::abs(flow.duration_s() - analytic), 1e-12 * analytic);
}

TEST(FlowSim, LoneMultiHopRequestNeverSlowerThanEq8) {
  // A lone leg drains at its slowest link's capacity; Eq. 8 books the sum
  // of every hop's time, so the DES can only be faster.
  const std::optional<RoutedPick> pick = routed_request(true);
  ASSERT_TRUE(pick.has_value());
  const model::ProblemInstance lone =
      lone_request(pick->solved.instance, pick->user, pick->item);
  util::Rng rng(1);
  const auto result =
      des::FlowLevelSimulator(lone).run(pick->solved.strategy, rng);
  ASSERT_EQ(result.flows.size(), 1u);
  const des::FlowRecord& flow = result.flows[0];
  ASSERT_FALSE(flow.local_hit || flow.from_cloud);
  ASSERT_GE(flow.hops, 2u);
  const double analytic =
      eq8_seconds(lone, pick->solved.strategy, pick->user, pick->item);
  EXPECT_GT(flow.duration_s(), 0.0);
  EXPECT_LE(flow.duration_s(), analytic * (1.0 + 1e-12));
}

TEST(FlowSim, DoubledLinkCapacityHalvesEveryRoutedDuration) {
  // Max-min shares scale with every capacity, so a burst replay over twice
  // the capacity halves each routed transfer; local hits and cloud fetches
  // never touch a link.
  const auto s = solved_instance(11);
  des::FlowSimOptions base;
  base.link_capacity_scale = 0.2;
  des::FlowSimOptions doubled = base;
  doubled.link_capacity_scale = 0.4;
  util::Rng rng_a(11);
  util::Rng rng_b(11);
  const auto a = des::FlowLevelSimulator(s.instance, base).run(s.strategy,
                                                               rng_a);
  const auto b =
      des::FlowLevelSimulator(s.instance, doubled).run(s.strategy, rng_b);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  std::size_t routed = 0;
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    const des::FlowRecord& x = a.flows[f];
    const des::FlowRecord& y = b.flows[f];
    ASSERT_EQ(x.local_hit, y.local_hit);
    ASSERT_EQ(x.from_cloud, y.from_cloud);
    EXPECT_EQ(x.arrival_s, y.arrival_s);
    if (x.local_hit || x.from_cloud) {
      EXPECT_EQ(x.duration_s(), y.duration_s()) << "record " << f;
      continue;
    }
    ++routed;
    EXPECT_LE(std::abs(y.duration_s() - 0.5 * x.duration_s()),
              1e-12 * x.duration_s())
        << "record " << f;
  }
  EXPECT_GT(routed, 0u);
}

}  // namespace
