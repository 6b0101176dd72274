// Fault layer: plan generation contracts, injector epoch algebra, the
// degraded-mode failover resolver, repair planning, and the analytic
// resilience metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/greedy_delivery.hpp"
#include "core/idde_g.hpp"
#include "core/metrics.hpp"
#include "core/resolver.hpp"
#include "des/flow_sim.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "model/instance_builder.hpp"
#include "net/shortest_path.hpp"
#include "obs/obs.hpp"
#include "oracles/eq8_reference.hpp"
#include "sim/overload.hpp"
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

/// The degraded Eq. 8 decision of one replicated request (k = 1).
struct Failover {
  std::size_t source;
  double seconds;
  core::FallbackTier tier;
};

Failover failover(const model::ProblemInstance& inst,
                  std::span<const std::size_t> hosts, std::size_t serving,
                  double size_mb, std::span<const std::uint8_t> up = {},
                  std::span<const std::size_t> reference = {}) {
  core::Eq8Resolver resolver(inst);
  const core::Eq8Resolution resolution =
      resolver.resolve({.hosts = hosts,
                        .serving = serving,
                        .item_mb = size_mb,
                        .fragment_mb = size_mb,
                        .server_up = up,
                        .fault_free_hosts = reference});
  return {resolution.source(), resolution.seconds, resolution.tier};
}

fault::FaultProfile lively_profile() {
  fault::FaultProfile profile;
  profile.horizon_s = 60.0;
  profile.server_mtbf_s = 20.0;
  profile.server_mttr_s = 5.0;
  profile.link_mtbf_s = 15.0;
  profile.link_mttr_s = 4.0;
  profile.cloud_mtbf_s = 40.0;
  profile.cloud_mttr_s = 3.0;
  profile.replica_corruption_prob = 0.05;
  return profile;
}

TEST(FaultPlan, DefaultAndInertProfileAreInert) {
  const fault::FaultPlan empty;
  EXPECT_TRUE(empty.inert());
  EXPECT_TRUE(fault::FaultProfile{}.inert());

  const auto inst = model::make_instance(small_params(), 1);
  const auto plan =
      fault::FaultPlan::generate(inst, fault::FaultProfile{}, 99);
  EXPECT_TRUE(plan.inert());
  EXPECT_TRUE(plan.edge_change_times().empty());
  EXPECT_TRUE(plan.server_up(0, 0.0));
  EXPECT_TRUE(plan.link_up(0, 1, 5.0));
  EXPECT_FALSE(plan.cloud_stalled(1.0));
  EXPECT_FALSE(plan.replica_corrupted(3, 2));
}

// A profile outside its domains fails with a typed error naming the key,
// not an assert inside the plan draw.
TEST(FaultPlan, HostileProfileThrowsNamingTheKey) {
  const auto inst = model::make_instance(small_params(), 1);
  fault::FaultProfile no_repair;
  no_repair.server_mtbf_s = 10.0;
  no_repair.server_mttr_s = 0.0;
  fault::FaultProfile bad_odds;
  bad_odds.replica_corruption_prob = 1.5;
  fault::FaultProfile no_window;
  no_window.horizon_s = -1.0;
  for (const auto& [profile, key] :
       {std::pair{no_repair, "server_mttr_s"},
        std::pair{bad_odds, "replica_corruption_prob"},
        std::pair{no_window, "horizon_s"}}) {
    try {
      (void)fault::FaultPlan::generate(inst, profile, 1);
      ADD_FAILURE() << key << " was accepted";
    } catch (const util::JsonError& error) {
      EXPECT_NE(std::string(error.what()).find(key), std::string::npos)
          << error.what();
    }
  }
}

TEST(FaultPlan, GeneratedIntervalsAreWellFormed) {
  const auto inst = model::make_instance(small_params(), 2);
  const auto profile = lively_profile();
  const auto plan = fault::FaultPlan::generate(inst, profile, 7);
  EXPECT_FALSE(plan.inert());

  const auto check = [&](const std::vector<fault::Interval>& intervals) {
    double last_end = 0.0;
    for (const fault::Interval& iv : intervals) {
      EXPECT_GE(iv.start_s, last_end);
      EXPECT_GT(iv.end_s, iv.start_s);
      EXPECT_LE(iv.end_s, profile.horizon_s);
      last_end = iv.end_s;
    }
  };
  for (const auto& intervals : plan.server_downtime()) check(intervals);
  for (const auto& [key, intervals] : plan.link_downtime()) {
    EXPECT_LT(key.first, key.second);
    check(intervals);
  }
  check(plan.cloud_downtime());

  const auto& changes = plan.edge_change_times();
  EXPECT_TRUE(std::is_sorted(changes.begin(), changes.end()));
  EXPECT_TRUE(std::adjacent_find(changes.begin(), changes.end()) ==
              changes.end());
  // Queries agree with the raw intervals.
  for (const auto& intervals : plan.server_downtime()) {
    for (const fault::Interval& iv : intervals) {
      const std::size_t i = static_cast<std::size_t>(
          &intervals - plan.server_downtime().data());
      EXPECT_FALSE(plan.server_up(i, iv.start_s));
      EXPECT_FALSE(plan.server_up(i, (iv.start_s + iv.end_s) / 2));
      EXPECT_TRUE(plan.server_up(i, iv.end_s));  // half-open
    }
  }
}

TEST(FaultPlan, DeterministicInSeedAndSensitiveToIt) {
  const auto inst = model::make_instance(small_params(), 3);
  const auto profile = lively_profile();
  const auto a = fault::FaultPlan::generate(inst, profile, 11);
  const auto b = fault::FaultPlan::generate(inst, profile, 11);
  const auto c = fault::FaultPlan::generate(inst, profile, 12);
  EXPECT_EQ(a.server_downtime(), b.server_downtime());
  EXPECT_EQ(a.link_downtime(), b.link_downtime());
  EXPECT_EQ(a.cloud_downtime(), b.cloud_downtime());
  EXPECT_EQ(a.edge_change_times(), b.edge_change_times());
  EXPECT_NE(a.server_downtime(), c.server_downtime());
  // Corruption is a stateless hash: query order cannot matter.
  EXPECT_EQ(a.replica_corrupted(4, 2), b.replica_corrupted(4, 2));
}

TEST(FaultPlan, CorruptionRateIsCalibrated) {
  const auto inst = model::make_instance(small_params(), 4);
  fault::FaultProfile profile;
  profile.replica_corruption_prob = 0.2;
  const auto plan = fault::FaultPlan::generate(inst, profile, 5);
  std::size_t corrupt = 0;
  const std::size_t trials = 20000;
  for (std::size_t s = 0; s < 200; ++s) {
    for (std::size_t k = 0; k < 100; ++k) {
      if (plan.replica_corrupted(s, k)) ++corrupt;
    }
  }
  const double rate = static_cast<double>(corrupt) / trials;
  EXPECT_NEAR(rate, 0.2, 0.02);
}

TEST(FaultPlan, CloudCompletionStallsThroughBrownouts) {
  fault::FaultPlan plan;
  plan.add_cloud_downtime({2.0, 5.0});
  plan.add_cloud_downtime({10.0, 11.0});
  EXPECT_TRUE(plan.cloud_stalled(3.0));
  EXPECT_FALSE(plan.cloud_stalled(5.0));
  // Transfer fits before the first brown-out: unaffected.
  EXPECT_DOUBLE_EQ(plan.cloud_completion(0.0, 1.5), 1.5);
  // Transfer hits the brown-out: stalls for its full 3 s.
  EXPECT_DOUBLE_EQ(plan.cloud_completion(1.0, 2.0), 6.0);
  // Transfer starting inside a brown-out waits for its end.
  EXPECT_DOUBLE_EQ(plan.cloud_completion(3.0, 1.0), 6.0);
  // Long transfer crosses both brown-outs.
  EXPECT_DOUBLE_EQ(plan.cloud_completion(0.0, 8.0), 12.0);
  // An inert plan never stalls.
  const fault::FaultPlan inert;
  EXPECT_DOUBLE_EQ(inert.cloud_completion(4.0, 2.5), 6.5);
}

TEST(FaultPlan, EdgeChangeTimesAndNextChange) {
  fault::FaultPlan plan;
  plan.add_server_downtime(2, {3.0, 7.0});
  plan.add_link_downtime(0, 1, {5.0, 9.0});
  const std::vector<double> expected{3.0, 5.0, 7.0, 9.0};
  EXPECT_EQ(plan.edge_change_times(), expected);
  EXPECT_DOUBLE_EQ(plan.next_edge_change_after(0.0), 3.0);
  EXPECT_DOUBLE_EQ(plan.next_edge_change_after(3.0), 5.0);
  EXPECT_DOUBLE_EQ(plan.next_edge_change_after(9.0), fault::kNeverChanges);
  // Cloud brown-outs never alter the edge graph.
  plan.add_cloud_downtime({1.0, 2.0});
  EXPECT_EQ(plan.edge_change_times(), expected);
}

TEST(FaultInjector, EpochsAreContiguousAndAgreeWithPlan) {
  const auto inst = model::make_instance(small_params(), 6);
  const auto plan = fault::FaultPlan::generate(inst, lively_profile(), 21);
  fault::FaultInjector injector(inst, plan);
  const std::vector<double> starts = plan.epoch_starts();
  ASSERT_GE(injector.epoch_count(), 1u);
  EXPECT_DOUBLE_EQ(injector.epoch(0).start_s, 0.0);
  for (std::size_t e = 0; e < injector.epoch_count(); ++e) {
    const auto& snap = injector.epoch(e);
    EXPECT_LT(snap.start_s, snap.end_s);
    if (e + 1 < injector.epoch_count()) {
      EXPECT_DOUBLE_EQ(snap.end_s, starts[e + 1]);
    } else {
      EXPECT_EQ(snap.end_s, fault::kNeverChanges);
    }
    // The mask equals the plan's point queries anywhere in the epoch.
    const double mid = snap.end_s == fault::kNeverChanges
                           ? snap.start_s + 1.0
                           : (snap.start_s + snap.end_s) / 2;
    for (std::size_t i = 0; i < inst.server_count(); ++i) {
      EXPECT_EQ(snap.server_up[i] != 0, plan.server_up(i, mid));
    }
    EXPECT_EQ(injector.epoch_index(mid), e);
    EXPECT_EQ(injector.epoch_index(snap.start_s), e);
  }
  // The final epoch (past the horizon) has everything up again.
  const auto& last = injector.epoch(injector.epoch_count() - 1);
  EXPECT_TRUE(last.all_up);
  EXPECT_EQ(last.graph.edge_count(), inst.graph().edge_count());
}

// The plan's shared epoch view (epoch_starts / epoch_index_at /
// availability_changed_between) is the single source of truth the
// injector and serve::ServeController both slice on — it must agree with
// the injector's epochs everywhere.
TEST(FaultInjector, PlanEpochViewMatchesInjectorSlicing) {
  const auto inst = model::make_instance(small_params(), 6);
  const auto plan = fault::FaultPlan::generate(inst, lively_profile(), 21);
  fault::FaultInjector injector(inst, plan);

  const std::vector<double> starts = plan.epoch_starts();
  ASSERT_EQ(starts.size(), injector.epoch_count());
  for (std::size_t e = 0; e < starts.size(); ++e) {
    EXPECT_DOUBLE_EQ(starts[e], injector.epoch(e).start_s);
  }

  // Dense time sweep: the plan-side index always equals the injector's.
  for (double t = 0.0; t < plan.horizon_s() + 5.0; t += 0.25) {
    EXPECT_EQ(plan.epoch_index_at(t), injector.epoch_index(t)) << "t=" << t;
  }

  // availability_changed_between brackets exactly the epoch boundaries:
  // true iff some change time falls in (from, to].
  std::vector<std::uint8_t> before;
  std::vector<std::uint8_t> after;
  const double step = 0.5;
  for (double t = step; t < plan.horizon_s() + 5.0; t += step) {
    const bool changed_index =
        plan.epoch_index_at(t - step) != plan.epoch_index_at(t);
    EXPECT_EQ(plan.availability_changed_between(t - step, t), changed_index);
    if (!plan.availability_changed_between(t - step, t)) {
      // An unchanged interval really has a constant mask.
      plan.server_up_mask(inst.server_count(), t - step, before);
      plan.server_up_mask(inst.server_count(), t, after);
      EXPECT_EQ(before, after);
    }
  }
  EXPECT_FALSE(plan.availability_changed_between(1.0, 0.5));  // to < from
}

// The injector keeps a pointer to its plan, so a temporary plan must not
// bind.
static_assert(!std::is_constructible_v<fault::FaultInjector,
                                       const model::ProblemInstance&,
                                       fault::FaultPlan&&>);
static_assert(std::is_constructible_v<fault::FaultInjector,
                                      const model::ProblemInstance&,
                                      const fault::FaultPlan&>);

/// Walking forward, every epoch's repaired cost matrix equals a fresh build
/// over the epoch's graph, bit for bit.
void expect_fresh_costs(fault::FaultInjector& injector) {
  for (std::size_t e = 0; e < injector.epoch_count(); ++e) {
    const fault::AvailabilitySnapshot& snap = injector.epoch(e);
    const net::CostMatrix fresh(snap.graph);
    const std::size_t n = fresh.size();
    ASSERT_EQ(snap.costs.size(), n);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(snap.costs.cost(a, b)),
                  std::bit_cast<std::uint64_t>(fresh.cost(a, b)))
            << "epoch " << e << " cost(" << a << ", " << b << ")";
      }
    }
  }
}

model::InstanceParams city_params() {
  model::InstanceParams p = sim::paper_default_params();
  p.server_count = 125;
  p.user_count = 200;
  p.data_count = 4;
  return p;
}

/// A global counter's value (always 0 in IDDE_OBS=0 builds).
std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

TEST(FaultInjector, RepairedEpochsMatchFreshMatricesOnChaosPlans) {
  const auto inst = model::make_instance(city_params(), 17);
  ASSERT_TRUE(net::absorption_free(inst.graph()));
  std::size_t epochs = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto plan =
        fault::FaultPlan::generate(inst, sim::chaos_fault_profile(), seed);
    fault::FaultInjector injector(inst, plan);
    expect_fresh_costs(injector);
    epochs += injector.epoch_count();
  }
  EXPECT_GT(epochs, 100u);
}

TEST(FaultInjector, RepairedEpochsMatchFreshMatricesWhenMostServersDie) {
  // MTBF far below the horizon: nearly every server and link goes down at
  // some point, often several at once.
  fault::FaultProfile heavy;
  heavy.horizon_s = 60.0;
  heavy.server_mtbf_s = 4.0;
  heavy.server_mttr_s = 6.0;
  heavy.link_mtbf_s = 3.0;
  heavy.link_mttr_s = 3.0;
  const auto inst = model::make_instance(city_params(), 18);
  const auto plan = fault::FaultPlan::generate(inst, heavy, 5);
  std::size_t crashed = 0;
  for (const auto& intervals : plan.server_downtime()) {
    if (!intervals.empty()) ++crashed;
  }
  EXPECT_GT(crashed, inst.server_count() * 9 / 10);
  fault::FaultInjector injector(inst, plan);
  expect_fresh_costs(injector);
}

TEST(FaultInjector, ZeroWeightEdgeTakesTheFreshBuild) {
  const auto base = model::make_instance(small_params(), 19);
  std::vector<net::Edge> edges;
  for (std::size_t a = 0; a < base.server_count(); ++a) {
    for (const net::Neighbor& nb : base.graph().neighbors(a)) {
      if (a < nb.node) edges.push_back(net::Edge{a, nb.node, nb.weight});
    }
  }
  edges.front().weight = 0.0;
  const model::ProblemInstance inst(
      base.servers(), base.users(), base.data_items(), base.requests(),
      net::Graph(base.server_count(), edges), base.latency(),
      base.radio_env());
  ASSERT_FALSE(net::absorption_free(inst.graph()));
  const auto plan = fault::FaultPlan::generate(inst, lively_profile(), 23);

  obs::set_enabled(true);
  obs::reset_all();
  fault::FaultInjector injector(inst, plan);
  expect_fresh_costs(injector);
  const std::uint64_t built = counter_value("fault.injector_rows_built_total");
  const std::uint64_t repaired =
      counter_value("fault.injector_rows_repaired_total");
  obs::set_enabled(false);
  obs::reset_all();
  ASSERT_GT(injector.epoch_count(), 1u);
#if IDDE_OBS
  EXPECT_EQ(built, injector.epoch_count() * inst.server_count());
  EXPECT_EQ(repaired, 0u);
#else
  (void)built, (void)repaired;
#endif
}

TEST(FaultInjector, TelemetryCountsEpochsAndRowsAndChangesNothing) {
  const auto inst = model::make_instance(city_params(), 20);
  const auto plan =
      fault::FaultPlan::generate(inst, sim::chaos_fault_profile(), 9);
  fault::FaultInjector quiet(inst, plan);

  obs::set_enabled(true);
  obs::reset_all();
  fault::FaultInjector counted(inst, plan);
  obs::set_enabled(false);
  ASSERT_EQ(counted.epoch_count(), quiet.epoch_count());
  // The two cursors step in lockstep; only `counted` steps with recording
  // on.
  const std::size_t n = inst.server_count();
  for (std::size_t e = 0; e < counted.epoch_count(); ++e) {
    obs::set_enabled(true);
    const fault::AvailabilitySnapshot& loud = counted.epoch(e);
    obs::set_enabled(false);
    const fault::AvailabilitySnapshot& silent = quiet.epoch(e);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(loud.costs.cost(a, b)),
                  std::bit_cast<std::uint64_t>(silent.costs.cost(a, b)));
      }
    }
  }
  const std::uint64_t epochs = counter_value("fault.injector_epochs_total");
  const std::uint64_t built = counter_value("fault.injector_rows_built_total");
  const std::uint64_t repaired =
      counter_value("fault.injector_rows_repaired_total");
  obs::reset_all();

#if IDDE_OBS
  EXPECT_EQ(epochs, counted.epoch_count());
  EXPECT_EQ(built, 0u);  // epoch 0 repairs the fault-free matrix
  EXPECT_GT(repaired, 0u);
  EXPECT_LT(repaired, counted.epoch_count() * inst.server_count());
#else
  (void)epochs, (void)built, (void)repaired;
#endif
}

/// The same adjacency lists, weights bit for bit.
void expect_same_graph(const net::Graph& a, const net::Graph& b) {
  const std::size_t n = a.node_count();
  ASSERT_EQ(b.node_count(), n);
  for (std::size_t node = 0; node < n; ++node) {
    const auto an = a.neighbors(node);
    const auto bn = b.neighbors(node);
    ASSERT_EQ(an.size(), bn.size()) << "node " << node;
    for (std::size_t k = 0; k < an.size(); ++k) {
      EXPECT_EQ(an[k].node, bn[k].node);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(an[k].weight),
                std::bit_cast<std::uint64_t>(bn[k].weight));
    }
  }
}

/// The same matrix, bit for bit.
void expect_same_costs(const net::CostMatrix& a, const net::CostMatrix& b) {
  const std::size_t n = a.size();
  ASSERT_EQ(b.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.cost(i, j)),
                std::bit_cast<std::uint64_t>(b.cost(i, j)))
          << "cost(" << i << ", " << j << ")";
    }
  }
}

/// Every field of two snapshots, the matrix bit for bit.
void expect_same_snapshot(const fault::AvailabilitySnapshot& a,
                          const fault::AvailabilitySnapshot& b) {
  EXPECT_EQ(a.start_s, b.start_s);
  EXPECT_EQ(a.end_s, b.end_s);
  EXPECT_EQ(a.server_up, b.server_up);
  EXPECT_EQ(a.all_up, b.all_up);
  expect_same_graph(a.graph, b.graph);
  ASSERT_EQ(a.costs.size(), a.graph.node_count());
  expect_same_costs(a.costs, b.costs);
}

/// `snap` against the plan's point queries at its start: the mask, all_up,
/// the surviving base edges in adjacency order, and a fresh matrix over
/// them.
void expect_epoch_matches_plan(const model::ProblemInstance& inst,
                               const fault::FaultPlan& plan,
                               const fault::AvailabilitySnapshot& snap) {
  const double t = snap.start_s;
  const std::size_t n = inst.server_count();
  ASSERT_EQ(snap.server_up.size(), n);
  bool all_up = true;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(snap.server_up[i] != 0, plan.server_up(i, t))
        << "server " << i << " at " << t;
    all_up = all_up && plan.server_up(i, t);
  }
  std::vector<net::Edge> surviving;
  for (std::size_t a = 0; a < n; ++a) {
    for (const net::Neighbor& nb : inst.graph().neighbors(a)) {
      if (a >= nb.node) continue;
      if (plan.server_up(a, t) && plan.server_up(nb.node, t) &&
          plan.link_up(a, nb.node, t)) {
        surviving.push_back(net::Edge{a, nb.node, nb.weight});
      } else {
        all_up = false;
      }
    }
  }
  EXPECT_EQ(snap.all_up, all_up) << "at " << t;
  const net::Graph expected(n, surviving);
  expect_same_graph(snap.graph, expected);
  expect_same_costs(snap.costs, net::CostMatrix(expected));
}

TEST(FaultInjector, JumpingAheadMatchesSteppingThroughEveryEpoch) {
  const auto inst = model::make_instance(city_params(), 21);
  const auto plan =
      fault::FaultPlan::generate(inst, sim::chaos_fault_profile(), 3);
  fault::FaultInjector jumper(inst, plan);
  fault::FaultInjector stepper(inst, plan);
  const std::size_t last = jumper.epoch_count() - 1;
  const std::size_t k = last / 2;
  ASSERT_GT(k, 1u);
  ASSERT_LT(k, last);
  expect_same_snapshot(jumper.epoch(0), stepper.epoch(0));
  for (std::size_t e = 1; e <= k; ++e) (void)stepper.epoch(e);
  expect_same_snapshot(jumper.epoch(k), stepper.epoch(k));
  // snapshot_at agrees with epoch(): the final epoch by time.
  for (std::size_t e = k + 1; e <= last; ++e) (void)stepper.epoch(e);
  expect_same_snapshot(jumper.snapshot_at(plan.horizon_s() + 1.0),
                       stepper.epoch(last));
  EXPECT_EQ(jumper.epoch(last).start_s, plan.epoch_starts().back());
}

TEST(FaultInjectorDeathTest, BackwardsQueryDies) {
  const auto inst = model::make_instance(small_params(), 6);
  const auto plan = fault::FaultPlan::generate(inst, lively_profile(), 21);
  fault::FaultInjector injector(inst, plan);
  ASSERT_GT(injector.epoch_count(), 2u);
  (void)injector.epoch(2);
  EXPECT_DEATH((void)injector.epoch(1), "precondition violated");
  EXPECT_DEATH((void)injector.snapshot_at(0.0), "precondition violated");
  EXPECT_DEATH((void)injector.epoch(injector.epoch_count()),
               "precondition violated");
}

TEST(FaultInjector, CountersReportNoFreshBuildAndNoExtraSteps) {
  const auto inst = model::make_instance(city_params(), 22);
  ASSERT_TRUE(net::absorption_free(inst.graph()));
  const auto plan =
      fault::FaultPlan::generate(inst, sim::chaos_fault_profile(), 5);
  obs::set_enabled(true);
  obs::reset_all();
  fault::FaultInjector injector(inst, plan);
  const std::size_t count = injector.epoch_count();
  ASSERT_GT(count, 4u);
  // Queries that skip epochs, repeat one and stop short of the last.
  (void)injector.epoch(0);
  (void)injector.epoch(1);
  (void)injector.epoch(1);
  (void)injector.epoch(count / 2);
  const std::uint64_t halfway = counter_value("fault.injector_epochs_total");
  (void)injector.epoch(count - 2);
  (void)injector.epoch(count - 1);
  const std::uint64_t epochs = counter_value("fault.injector_epochs_total");
  const std::uint64_t built = counter_value("fault.injector_rows_built_total");
  obs::set_enabled(false);
  obs::reset_all();
#if IDDE_OBS
  EXPECT_EQ(halfway, count / 2 + 1);  // epochs past the query: not built
  EXPECT_EQ(epochs, count);
  EXPECT_EQ(built, 0u);
#else
  (void)halfway, (void)epochs, (void)built;
#endif
}

TEST(FaultInjector, DeltaStepsMatchPlanPointQueriesOnAHandBuiltPlan) {
  // A base graph with one doubled link (a parallel edge at a different
  // weight), and a copy of it with a zero-weight edge, which takes the
  // fresh build on every epoch.
  const auto source = model::make_instance(small_params(), 24);
  std::vector<net::Edge> edges;
  for (std::size_t a = 0; a < source.server_count(); ++a) {
    for (const net::Neighbor& nb : source.graph().neighbors(a)) {
      if (a < nb.node) edges.push_back(net::Edge{a, nb.node, nb.weight});
    }
  }
  ASSERT_GE(edges.size(), 6u);
  const net::Edge doubled = edges[1];
  edges.push_back(net::Edge{doubled.from, doubled.to, doubled.weight * 1.5});
  std::vector<net::Edge> zero_weight = edges;
  zero_weight[4].weight = 0.0;
  const auto with_edges = [&source](const std::vector<net::Edge>& list) {
    const net::Graph graph(source.server_count(), list);
    return model::ProblemInstance(
        source.servers(), source.users(), source.data_items(),
        source.requests(), graph,
        net::DeliveryLatencyModel(net::CostMatrix(graph),
                                  source.latency().cloud_speed_mbps()),
        source.radio_env());
  };

  const net::Edge at_zero = edges[0];
  const net::Edge crash_link = edges[2];
  const net::Edge chained = edges[3];
  const std::size_t crash = crash_link.from;
  // Servers other than the links' endpoints, for the server-only cases.
  std::vector<std::size_t> spare;
  for (std::size_t i = 0; i < source.server_count(); ++i) {
    bool endpoint = false;
    for (const net::Edge& e : {at_zero, doubled, crash_link, chained}) {
      endpoint = endpoint || i == e.from || i == e.to;
    }
    if (!endpoint) spare.push_back(i);
  }
  ASSERT_GE(spare.size(), 3u);

  fault::FaultPlan plan;
  // Down at t = 0: a server and a link.
  plan.add_server_downtime(spare[0], {0.0, 1.5});
  plan.add_link_downtime(at_zero.from, at_zero.to, {0.0, 2.5});
  // Both parallel edges of the doubled link.
  plan.add_link_downtime(doubled.to, doubled.from, {1.0, 4.0});
  // A server and one of its links at the same instant.
  plan.add_server_downtime(crash, {2.0, 3.0});
  plan.add_link_downtime(crash_link.from, crash_link.to, {2.0, 3.5});
  // Back-to-back intervals of one entity: the link stays down at 5.0.
  plan.add_link_downtime(chained.from, chained.to, {4.0, 5.0});
  plan.add_link_downtime(chained.from, chained.to, {5.0, 6.0});
  // One entity's interval ends where another's starts, twice over.
  plan.add_server_downtime(spare[1], {6.0, 7.0});
  plan.add_server_downtime(spare[2], {7.0, 8.0});
  plan.add_server_downtime(spare[0], {8.0, 9.0});

  for (const auto& list : {edges, zero_weight}) {
    const model::ProblemInstance inst = with_edges(list);
    fault::FaultInjector injector(inst, plan);
    ASSERT_EQ(injector.epoch_count(), plan.epoch_starts().size());
    std::size_t degraded = 0;
    for (std::size_t e = 0; e < injector.epoch_count(); ++e) {
      SCOPED_TRACE(e);
      const fault::AvailabilitySnapshot& snap = injector.epoch(e);
      expect_epoch_matches_plan(inst, plan, snap);
      if (!snap.all_up) ++degraded;
    }
    EXPECT_EQ(degraded, injector.epoch_count() - 1);  // all up from 9.0
  }
}

TEST(Failover, AllUpReproducesEq8AndPrimaryTier) {
  const auto s = solved_instance(7);
  const auto& inst = s.instance;
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    const auto slot = s.strategy.allocation[j];
    const std::size_t serving =
        slot.allocated() ? slot.server : core::ChannelSlot::kNone;
    for (const std::size_t k : inst.requests().items_of(j)) {
      const double size = inst.data(k).size_mb;
      const auto decision = failover(
          inst, s.strategy.delivery.hosts(k), serving, size);
      EXPECT_EQ(decision.tier, core::FallbackTier::kPrimary);
      const double expected =
          slot.allocated()
              ? oracle::best_delivery_seconds(
                    inst.latency(), s.strategy.delivery.hosts(k), serving,
                    size)
              : inst.latency().cloud_transfer_seconds(size);
      EXPECT_DOUBLE_EQ(decision.seconds, expected);
    }
  }
}

TEST(Failover, DeadPrimaryFallsThroughTheTiers) {
  const auto s = solved_instance(8);
  const auto& inst = s.instance;
  // Find a request whose fault-free source is an edge replica.
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    const auto slot = s.strategy.allocation[j];
    if (!slot.allocated()) continue;
    for (const std::size_t k : inst.requests().items_of(j)) {
      const double size = inst.data(k).size_mb;
      const auto hosts = s.strategy.delivery.hosts(k);
      const auto fault_free =
          failover(inst, hosts, slot.server, size);
      if (fault_free.source == core::kCloudSource) continue;

      // Kill the fault-free source: the request must still resolve, at a
      // strictly-worse-or-equal latency, on a non-primary tier.
      std::vector<std::uint8_t> up(inst.server_count(), 1);
      up[fault_free.source] = 0;
      const auto degraded =
          failover(inst, hosts, slot.server, size, up);
      if (slot.server == fault_free.source) {
        // The user's own server died: cloud-direct.
        EXPECT_EQ(degraded.source, core::kCloudSource);
        EXPECT_EQ(degraded.tier, core::FallbackTier::kCloud);
      } else {
        EXPECT_NE(degraded.source, fault_free.source);
        EXPECT_NE(degraded.tier, core::FallbackTier::kPrimary);
        EXPECT_GE(degraded.seconds, fault_free.seconds - 1e-12);
      }

      // Kill every server: only the cloud remains.
      std::vector<std::uint8_t> none(inst.server_count(), 0);
      const auto cloud_only =
          failover(inst, hosts, slot.server, size, none);
      EXPECT_EQ(cloud_only.source, core::kCloudSource);
      EXPECT_DOUBLE_EQ(cloud_only.seconds,
                       inst.latency().cloud_transfer_seconds(size));
      return;
    }
  }
  GTEST_SKIP() << "no edge-served request in this draw";
}

TEST(Failover, PreFilteredHostsClassifyAgainstReference) {
  const auto s = solved_instance(9);
  const auto& inst = s.instance;
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    const auto slot = s.strategy.allocation[j];
    if (!slot.allocated()) continue;
    for (const std::size_t k : inst.requests().items_of(j)) {
      const double size = inst.data(k).size_mb;
      const auto hosts = s.strategy.delivery.hosts(k);
      const auto fault_free =
          failover(inst, hosts, slot.server, size);
      if (fault_free.source == core::kCloudSource) continue;
      // Drop the primary from the degraded set (a corrupt replica) while
      // passing the full set as the tier reference: the fallback must not
      // be relabelled kPrimary.
      std::vector<std::size_t> filtered;
      for (const std::size_t host : hosts) {
        if (host != fault_free.source) filtered.push_back(host);
      }
      const auto degraded = failover(
          inst, filtered, slot.server, size, {}, hosts);
      EXPECT_NE(degraded.tier, core::FallbackTier::kPrimary);
      return;
    }
  }
  GTEST_SKIP() << "no edge-served request in this draw";
}

TEST(RepairPlanner, AllUpReplanIsANoOpOnGreedySigma) {
  const auto inst = model::make_instance(small_params(), 10);
  util::Rng rng(10);
  const auto strategy = core::IddeG().solve(inst, rng);
  const std::vector<std::uint8_t> up(inst.server_count(), 1);
  const auto result = core::GreedyDeliveryPlanner(inst).replan(
      strategy.allocation, strategy.delivery, up);
  // Submodularity: a saturated greedy sigma admits no further profitable
  // placement, and nothing was lost — the replan reproduces sigma.
  EXPECT_EQ(result.lost_placements, 0u);
  EXPECT_EQ(result.repair_placements, 0u);
  EXPECT_EQ(result.delivery.placement_count(),
            strategy.delivery.placement_count());
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    for (const std::size_t i : strategy.delivery.hosts(k)) {
      EXPECT_TRUE(result.delivery.placed(i, k));
    }
  }
}

// replan() rewinds member scratch (heap, evaluator, effective allocation)
// per call; a warm planner must reproduce a fresh planner's repair exactly,
// including across different outage masks on the same instance.
TEST(RepairPlanner, ReusedPlannerMatchesFreshPlanner) {
  const auto inst = model::make_instance(small_params(), 12);
  util::Rng rng(12);
  const auto strategy = core::IddeG().solve(inst, rng);
  core::GreedyDeliveryPlanner warm(inst);
  for (std::size_t dead = 0; dead < inst.server_count(); ++dead) {
    std::vector<std::uint8_t> up(inst.server_count(), 1);
    up[dead] = 0;
    const auto reused =
        warm.replan(strategy.allocation, strategy.delivery, up);
    const auto fresh = core::GreedyDeliveryPlanner(inst).replan(
        strategy.allocation, strategy.delivery, up);
    EXPECT_EQ(reused.lost_placements, fresh.lost_placements) << dead;
    EXPECT_EQ(reused.repair_placements, fresh.repair_placements) << dead;
    EXPECT_DOUBLE_EQ(reused.recovered_gain_seconds,
                     fresh.recovered_gain_seconds)
        << dead;
    EXPECT_EQ(reused.delivery.placement_count(),
              fresh.delivery.placement_count())
        << dead;
    for (std::size_t k = 0; k < inst.data_count(); ++k) {
      for (std::size_t i = 0; i < inst.server_count(); ++i) {
        EXPECT_EQ(reused.delivery.placed(i, k), fresh.delivery.placed(i, k))
            << "dead " << dead << " server " << i << " item " << k;
      }
    }
  }
}

// The first n placements of a budgeted replan are the first n of the
// unbudgeted one: the budgeted sigma is a subset and the budget caps the
// repair count exactly. The standing sigma is the greedy one without the
// replicas of items 0 and 1, with server 0 down, so the repair has room to
// place a dozen replicas.
TEST(RepairPlanner, BudgetedReplanIsAPrefixOfUnbudgeted) {
  const auto inst = model::make_instance(small_params(), 13);
  util::Rng rng(13);
  const auto strategy = core::IddeG().solve(inst, rng);
  core::DeliveryProfile standing(inst);
  for (std::size_t k = 2; k < inst.data_count(); ++k) {
    for (const std::size_t i : strategy.delivery.hosts(k)) standing.place(i, k);
  }
  std::vector<std::uint8_t> up(inst.server_count(), 1);
  up[0] = 0;
  core::GreedyDeliveryPlanner planner(inst);
  const auto full = planner.replan(strategy.allocation, standing, up);
  ASSERT_GT(full.repair_placements, 3u);
  const std::size_t total = full.repair_placements;
  for (const std::size_t budget :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        total - 1, total, total + 1}) {
    SCOPED_TRACE(testing::Message() << "budget " << budget);
    const auto cut =
        planner.replan(strategy.allocation, standing, up, {}, true, budget);
    EXPECT_EQ(cut.repair_placements, std::min(budget, total));
    EXPECT_EQ(cut.lost_placements, full.lost_placements);
    for (std::size_t k = 0; k < inst.data_count(); ++k) {
      for (const std::size_t i : cut.delivery.hosts(k)) {
        EXPECT_TRUE(full.delivery.placed(i, k)) << i << ", " << k;
      }
    }
  }
}

TEST(RepairPlanner, CrashLosesAndRepairsUnderStorageBudget) {
  const auto inst = model::make_instance(small_params(), 11);
  util::Rng rng(11);
  const auto strategy = core::IddeG().solve(inst, rng);
  // Crash the server hosting the most replicas.
  std::vector<std::size_t> load(inst.server_count(), 0);
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    for (const std::size_t i : strategy.delivery.hosts(k)) ++load[i];
  }
  const std::size_t dead = static_cast<std::size_t>(
      std::max_element(load.begin(), load.end()) - load.begin());
  ASSERT_GT(load[dead], 0u);
  std::vector<std::uint8_t> up(inst.server_count(), 1);
  up[dead] = 0;
  const auto result = core::GreedyDeliveryPlanner(inst).replan(
      strategy.allocation, strategy.delivery, up);
  EXPECT_EQ(result.lost_placements, load[dead]);
  // Nothing lands on the dead server, and Eq. 6 holds on the survivors.
  std::vector<double> used(inst.server_count(), 0.0);
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    for (const std::size_t i : result.delivery.hosts(k)) {
      EXPECT_NE(i, dead);
      used[i] += inst.data(k).size_mb;
    }
  }
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    EXPECT_LE(used[i], inst.server(i).storage_mb + 1e-9);
  }
  // The healed sigma serves (weakly) better than the pruned survivor set.
  core::DeliveryProfile pruned(inst);
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    for (const std::size_t i : strategy.delivery.hosts(k)) {
      if (i != dead) pruned.place(i, k);
    }
  }
  EXPECT_LE(
      core::total_latency_seconds(inst, strategy.allocation, result.delivery),
      core::total_latency_seconds(inst, strategy.allocation, pruned) + 1e-9);
}

TEST(Resilience, InertPlanReproducesFaultFreeMetricsExactly) {
  const auto s = solved_instance(12);
  const fault::FaultPlan inert;
  const auto report = fault::evaluate_resilience(s.instance, s.strategy,
                                                 inert);
  const double fault_free = core::average_latency_ms(
      s.instance, s.strategy.allocation, s.strategy.delivery,
      s.strategy.collaborative_delivery);
  EXPECT_EQ(report.fault_free_latency_ms, fault_free);
  EXPECT_EQ(report.degraded_latency_ms, fault_free);
  EXPECT_EQ(report.availability, 1.0);
  EXPECT_EQ(report.tier_fraction[0], 1.0);
  EXPECT_EQ(report.lost_placements, 0u);
}

TEST(Resilience, DegradationOrderingAcrossPolicies) {
  const auto s = solved_instance(13);
  const auto plan =
      fault::FaultPlan::generate(s.instance, lively_profile(), 31);
  const auto none = fault::evaluate_resilience(s.instance, s.strategy, plan,
                                               fault::RepairPolicy::kNone);
  const auto greedy = fault::evaluate_resilience(
      s.instance, s.strategy, plan, fault::RepairPolicy::kGreedy);
  // Faults only hurt; repair only helps (it strictly extends the pruned
  // survivor set greedily).
  EXPECT_GE(none.degraded_latency_ms, none.fault_free_latency_ms - 1e-9);
  EXPECT_LE(greedy.degraded_latency_ms, none.degraded_latency_ms + 1e-9);
  EXPECT_GE(none.availability, 0.0);
  EXPECT_LE(none.availability, 1.0);
  const double mass = none.tier_fraction[0] + none.tier_fraction[1] +
                      none.tier_fraction[2];
  EXPECT_NEAR(mass, 1.0, 1e-9);
  EXPECT_GT(none.epochs, 1u);
  EXPECT_GT(greedy.repair_placements + greedy.lost_placements, 0u);
}

TEST(Resilience, SingleServerCrashNeverAbortsARun) {
  const auto s = solved_instance(14);
  const auto& inst = s.instance;
  for (std::size_t dead = 0; dead < inst.server_count(); ++dead) {
    std::vector<std::uint8_t> up(inst.server_count(), 1);
    up[dead] = 0;
    for (std::size_t j = 0; j < inst.user_count(); ++j) {
      const auto slot = s.strategy.allocation[j];
      const std::size_t serving =
          slot.allocated() ? slot.server : core::ChannelSlot::kNone;
      for (const std::size_t k : inst.requests().items_of(j)) {
        const auto decision = failover(
            inst, s.strategy.delivery.hosts(k), serving,
            inst.data(k).size_mb, up);
        EXPECT_GE(decision.seconds, 0.0);
        EXPECT_LT(decision.seconds, fault::kNeverChanges);
      }
    }
  }
}

TEST(FaultDes, FaultyReplayServesEveryRequestFinitely) {
  const auto s = solved_instance(15);
  const auto plan =
      fault::FaultPlan::generate(s.instance, lively_profile(), 41);
  ASSERT_FALSE(plan.inert());
  des::FlowSimOptions options;
  options.arrival_window_s = 30.0;  // overlap the fault horizon
  options.fault_plan = &plan;
  des::FlowLevelSimulator sim(s.instance, options);
  util::Rng rng(15);
  const auto result = sim.run(s.strategy, rng);
  EXPECT_EQ(result.flows.size(), s.instance.requests().total_requests());
  std::size_t tier_total = 0;
  for (const auto& flow : result.flows) {
    EXPECT_GE(flow.completion_s, flow.arrival_s);
    EXPECT_LT(flow.duration_s(), 1e6);
  }
  for (const std::size_t count : result.tier_counts) tier_total += count;
  EXPECT_EQ(tier_total, result.flows.size());
  EXPECT_LE(result.availability, 1.0);
  // The degraded tail can only be at or beyond the fault-free tail.
  des::FlowSimOptions clean = options;
  clean.fault_plan = nullptr;
  util::Rng rng_clean(15);
  const auto baseline =
      des::FlowLevelSimulator(s.instance, clean).run(s.strategy, rng_clean);
  EXPECT_GE(result.p99_duration_ms, baseline.p99_duration_ms - 1e-9);
}

TEST(FaultDes, CloudBrownoutStallsTheCloudLeg) {
  const auto s = solved_instance(16);
  // Empty sigma: every request takes the cloud leg (delivery.hpp pins the
  // cloud-start default), so the brown-out must delay all of them.
  const core::Strategy strategy(s.strategy.allocation,
                                core::DeliveryProfile(s.instance));
  // Manual plan: one long brown-out covering every arrival.
  fault::FaultPlan plan;
  plan.add_cloud_downtime({0.0, 5.0});
  ASSERT_FALSE(plan.inert());
  des::FlowSimOptions options;
  options.fault_plan = &plan;
  des::FlowLevelSimulator sim(s.instance, options);
  util::Rng rng(16);
  const auto result = sim.run(strategy, rng);
  bool saw_cloud = false;
  for (const auto& flow : result.flows) {
    if (!flow.from_cloud) continue;
    saw_cloud = true;
    // Arrivals are at t=0, inside the brown-out: the cloud leg waits out
    // the stall before transferring.
    EXPECT_GE(flow.completion_s, 5.0);
  }
  ASSERT_TRUE(saw_cloud);
}

}  // namespace
