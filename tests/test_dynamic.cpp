// Mobility extension: random waypoint, snapshot rebuilding, migration
// planning and the dynamic simulation loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/greedy_delivery.hpp"
#include "core/idde_g.hpp"
#include "dynamic/migration.hpp"
#include "dynamic/mobility.hpp"
#include "dynamic/simulation.hpp"
#include "model/instance_builder.hpp"
#include "obs/obs.hpp"
#include "oracles/world_rebuild.hpp"
#include "sim/paper.hpp"

namespace {

using namespace idde;
using dynamic::MobilityParams;
using dynamic::RandomWaypointModel;

model::InstanceParams small_params() {
  model::InstanceParams p = sim::paper_default_params();
  p.server_count = 10;
  p.user_count = 40;
  p.data_count = 3;
  return p;
}

TEST(RandomWaypoint, StaysInBoundsAndMoves) {
  util::Rng rng(1);
  const geo::BoundingBox bounds = geo::BoundingBox::square(500.0);
  std::vector<geo::Point> start{{10, 10}, {250, 250}, {490, 490}};
  RandomWaypointModel model(start, bounds, MobilityParams{}, rng);
  for (int step = 0; step < 100; ++step) {
    model.step(1.0, rng);
    for (const geo::Point& p : model.positions()) {
      EXPECT_TRUE(bounds.contains(p));
    }
  }
  EXPECT_GT(model.total_distance_m(), 0.0);
}

TEST(RandomWaypoint, SpeedBoundsRespected) {
  util::Rng rng(2);
  const geo::BoundingBox bounds = geo::BoundingBox::square(10000.0);
  std::vector<geo::Point> start{{5000, 5000}};
  MobilityParams params{.min_speed_mps = 1.0,
                        .max_speed_mps = 2.0,
                        .pause_seconds = 0.0};
  RandomWaypointModel model(start, bounds, params, rng);
  for (int step = 0; step < 50; ++step) {
    const geo::Point before = model.positions()[0];
    model.step(1.0, rng);
    const double moved = geo::distance_m(before, model.positions()[0]);
    // Up to max speed, possibly less when turning at a waypoint.
    EXPECT_LE(moved, 2.0 + 1e-9);
  }
  // Distance accumulates at at least min speed when there are no pauses.
  EXPECT_GE(model.total_distance_m(), 50.0 * 1.0 - 1e-6);
}

TEST(RandomWaypoint, PauseStopsMovement) {
  util::Rng rng(3);
  const geo::BoundingBox bounds = geo::BoundingBox::square(100.0);
  MobilityParams params{.min_speed_mps = 100.0,   // reach waypoint fast
                        .max_speed_mps = 100.0,
                        .pause_seconds = 1e9};    // then freeze
  RandomWaypointModel model({{50, 50}}, bounds, params, rng);
  model.step(10.0, rng);  // certainly arrived and paused
  const geo::Point frozen = model.positions()[0];
  model.step(10.0, rng);
  EXPECT_EQ(model.positions()[0], frozen);
}

TEST(World, SnapshotPreservesStaticsAndUpdatesRadio) {
  const auto base = model::make_instance(small_params(), 4);
  auto positions = dynamic::user_positions(base);
  // Move every user 400 m east (clamped world is 2 km, stays inside).
  for (auto& p : positions) p.x = std::min(p.x + 400.0, 1999.0);
  const radio::PathLossModel pathloss = radio::PathLossModel::paper_default();
  model::ProblemInstance snap = base;
  snap.set_user_positions(positions, pathloss);

  EXPECT_EQ(snap.server_count(), base.server_count());
  EXPECT_EQ(snap.data_count(), base.data_count());
  EXPECT_EQ(snap.requests().total_requests(),
            base.requests().total_requests());
  EXPECT_DOUBLE_EQ(snap.total_storage_mb(), base.total_storage_mb());
  // User metadata other than position survives.
  for (std::size_t j = 0; j < base.user_count(); ++j) {
    EXPECT_DOUBLE_EQ(snap.user(j).power_watts, base.user(j).power_watts);
    EXPECT_EQ(snap.user(j).position, positions[j]);
  }
  // Every stored gain corresponds to the new geometry.
  const radio::RadioEnvironment& env = snap.radio_env();
  for (std::size_t j = 0; j < snap.user_count(); ++j) {
    const auto reach = env.reach(j);
    for (std::size_t e = 0; e < reach.size(); ++e) {
      const double expected = pathloss.gain(
          geo::distance_m(snap.server(reach[e]).position, positions[j]));
      EXPECT_DOUBLE_EQ(env.gains(j)[e], expected);
    }
  }
}

TEST(World, IdentityPositionsReproduceCoverage) {
  const auto base = model::make_instance(small_params(), 5);
  model::ProblemInstance snap = base;
  snap.set_user_positions(dynamic::user_positions(base),
                          radio::PathLossModel::paper_default());
  for (std::size_t j = 0; j < base.user_count(); ++j) {
    EXPECT_EQ(snap.covering_servers(j), base.covering_servers(j));
  }
  for (std::size_t i = 0; i < base.server_count(); ++i) {
    EXPECT_EQ(snap.covered_users(i), base.covered_users(i));
  }
}

// The one live instance, moved in place step after step, must equal a
// fresh rebuild at the same positions (the O(N)-scan oracle) in every
// coverage set, reach row, gain bit, U_i and position, and must pass the
// radio environment's full check at every step.
TEST(World, SetUserPositionsMatchesRebuildOracleBitExactly) {
  const auto base = model::make_instance(small_params(), 12);
  const radio::PathLossModel pathloss = radio::PathLossModel::paper_default();
  const geo::BoundingBox bounds = geo::BoundingBox::square(2000.0);
  util::Rng rng(12);
  RandomWaypointModel mobility(dynamic::user_positions(base), bounds,
                               MobilityParams{}, rng);
  model::ProblemInstance world = base;
  for (int step = 0; step < 25; ++step) {
    mobility.step(1.0, rng);
    world.set_user_positions(mobility.positions(), pathloss);
    const auto rebuilt =
        oracle::with_user_positions(base, mobility.positions(), pathloss);
    const radio::RadioEnvironment& tracked = world.radio_env();
    const radio::RadioEnvironment& want = rebuilt.radio_env();
    ASSERT_NO_THROW(tracked.check()) << "step " << step;
    ASSERT_EQ(tracked.neighbours, want.neighbours) << "step " << step;
    for (std::size_t j = 0; j < base.user_count(); ++j) {
      ASSERT_EQ(world.user(j).position, rebuilt.user(j).position)
          << "position diverged for user " << j << " at step " << step;
      ASSERT_EQ(tracked.covering_servers[j], want.covering_servers[j])
          << "coverage diverged for user " << j << " at step " << step;
      const auto reach = tracked.reach(j);
      ASSERT_TRUE(std::ranges::equal(reach, want.reach(j)))
          << "reach diverged for user " << j << " at step " << step;
      for (std::size_t e = 0; e < reach.size(); ++e) {
        // Bit-exact, not approximate: the in-place update must give the
        // full rebuild's bits.
        ASSERT_EQ(tracked.gains(j)[e], want.gains(j)[e])
            << "gain diverged at (" << reach[e] << ", " << j << "), step "
            << step;
      }
    }
    for (std::size_t i = 0; i < base.server_count(); ++i) {
      ASSERT_EQ(world.covered_users(i), rebuilt.covered_users(i))
          << "U_i diverged for server " << i << " at step " << step;
    }
  }
}

/// A global counter's value (always 0 in IDDE_OBS=0 builds).
std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Asserts that `world` equals the O(N)-scan rebuild of `base` at
/// `positions` in every coverage set, reach row, gain bit and U_i, and
/// passes the radio environment's full check.
void expect_matches_rebuild(const model::ProblemInstance& world,
                            const model::ProblemInstance& base,
                            const std::vector<geo::Point>& positions,
                            const radio::PathLossModel& pathloss, int tick) {
  const auto rebuilt = oracle::with_user_positions(base, positions, pathloss);
  const radio::RadioEnvironment& tracked = world.radio_env();
  const radio::RadioEnvironment& want = rebuilt.radio_env();
  ASSERT_NO_THROW(tracked.check()) << "tick " << tick;
  ASSERT_EQ(tracked.reach_offset, want.reach_offset) << "tick " << tick;
  ASSERT_EQ(tracked.reach_server, want.reach_server) << "tick " << tick;
  ASSERT_EQ(tracked.gain.size(), want.gain.size()) << "tick " << tick;
  for (std::size_t e = 0; e < want.gain.size(); ++e) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(tracked.gain[e]),
              std::bit_cast<std::uint64_t>(want.gain[e]))
        << "gain entry " << e << " diverged at tick " << tick;
  }
  for (std::size_t j = 0; j < base.user_count(); ++j) {
    ASSERT_EQ(world.user(j).position, positions[j]) << "tick " << tick;
    ASSERT_EQ(tracked.covering_servers[j], want.covering_servers[j])
        << "V_j diverged for user " << j << " at tick " << tick;
  }
  for (std::size_t i = 0; i < base.server_count(); ++i) {
    ASSERT_EQ(world.covered_users(i), rebuilt.covered_users(i))
        << "U_i diverged for server " << i << " at tick " << tick;
  }
}

// set_user_positions re-derives reach(j) only for users whose V_j changed
// and copies every other row. Over 220 random-waypoint ticks, one tick
// that moves nobody and one teleport that changes every V_j, the live
// instance must equal the O(N)-scan rebuild bit for bit after every tick,
// and model.coverage_rows_rederived_total must count exactly the users
// whose V_j changed.
TEST(World, IncrementalCoverageRowsMatchRebuildOracle) {
  model::InstanceParams params = small_params();
  params.server_count = 20;
  params.user_count = 120;
  const auto base = model::make_instance(params, 13);
  const radio::PathLossModel pathloss = radio::PathLossModel::paper_default();
  util::Rng rng(13);
  // Fast walkers with short pauses, so coverage changes every tick.
  RandomWaypointModel mobility(
      dynamic::user_positions(base), geo::BoundingBox::square(2000.0),
      MobilityParams{
          .min_speed_mps = 2.0, .max_speed_mps = 8.0, .pause_seconds = 1.0},
      rng);
  model::ProblemInstance world = base;
  obs::reset_all();
  obs::set_enabled(true);
  std::size_t partial_ticks = 0;
  for (int tick = 0; tick < 222; ++tick) {
    std::vector<geo::Point> positions;
    if (tick == 100) {
      positions = dynamic::user_positions(world);  // nobody moves
    } else if (tick == 150) {
      // Teleport: a covered user leaves every disc, an uncovered one lands
      // on server 0, so every V_j changes.
      for (std::size_t j = 0; j < world.user_count(); ++j) {
        positions.push_back(world.covering_servers(j).empty()
                                ? world.server(0).position
                                : geo::Point{-1e4, -1e4});
      }
    } else {
      mobility.step(5.0, rng);
      positions = mobility.positions();
    }
    const std::vector<std::vector<std::size_t>> before =
        world.radio_env().covering_servers;
    const std::uint64_t counted_before =
        counter_value("model.coverage_rows_rederived_total");
    world.set_user_positions(positions, pathloss);
    const std::uint64_t counted =
        counter_value("model.coverage_rows_rederived_total") -
        counted_before;
    expect_matches_rebuild(world, base, positions, pathloss, tick);
    ASSERT_FALSE(HasFatalFailure());
    std::size_t changed = 0;
    for (std::size_t j = 0; j < world.user_count(); ++j) {
      changed += before[j] != world.covering_servers(j) ? 1 : 0;
    }
#if IDDE_OBS
    EXPECT_EQ(counted, changed) << "tick " << tick;
#else
    (void)counted;
#endif
    if (tick == 100) {
      EXPECT_EQ(changed, 0u);
    }
    if (tick == 150) {
      EXPECT_EQ(changed, world.user_count());
    }
    if (changed > 0 && changed < world.user_count()) ++partial_ticks;
  }
  obs::set_enabled(false);
  obs::reset_all();
  // Most ticks mix re-derived and copied rows.
  EXPECT_GT(partial_ticks, 150u);
}

TEST(RandomWaypoint, RestoreStateResumesIdentically) {
  const geo::BoundingBox bounds = geo::BoundingBox::square(800.0);
  std::vector<geo::Point> start{{100, 100}, {400, 400}, {700, 100}};
  util::Rng rng_a(31);
  RandomWaypointModel a(start, bounds, MobilityParams{}, rng_a);
  for (int i = 0; i < 10; ++i) a.step(1.0, rng_a);
  // Snapshot mid-walk, keep walking, then restore into a fresh model.
  const auto positions = a.positions();
  const auto walks = a.walks();
  const double walked = a.total_distance_m();
  const util::RngState rng_state = rng_a.state();
  for (int i = 0; i < 10; ++i) a.step(1.0, rng_a);

  util::Rng rng_b(999);  // deliberately different seed; state is restored
  RandomWaypointModel b(start, bounds, MobilityParams{}, rng_b);
  b.restore_state(positions, walks, walked);
  rng_b.set_state(rng_state);
  for (int i = 0; i < 10; ++i) b.step(1.0, rng_b);
  ASSERT_EQ(a.positions().size(), b.positions().size());
  for (std::size_t j = 0; j < a.positions().size(); ++j) {
    EXPECT_EQ(a.positions()[j], b.positions()[j]);
  }
  EXPECT_EQ(a.total_distance_m(), b.total_distance_m());
}

TEST(Churn, RestoreMaskRecountsAndResumes) {
  dynamic::ChurnParams params;
  params.arrival_rate_hz = 1.0 / 10.0;
  params.mean_session_s = 10.0;
  util::Rng rng_a(41);
  dynamic::ChurnProcess a(64, params, rng_a);
  for (int i = 0; i < 20; ++i) a.step(1.0, rng_a);
  const std::vector<bool> mask = a.mask();
  const util::RngState rng_state = rng_a.state();
  for (int i = 0; i < 20; ++i) a.step(1.0, rng_a);

  util::Rng rng_b(77);
  dynamic::ChurnProcess b(64, params, rng_b);
  b.restore_mask(mask);
  EXPECT_EQ(b.online_count(),
            static_cast<std::size_t>(
                std::count(mask.begin(), mask.end(), true)));
  rng_b.set_state(rng_state);
  for (int i = 0; i < 20; ++i) b.step(1.0, rng_b);
  EXPECT_EQ(a.mask(), b.mask());
  EXPECT_EQ(a.online_count(), b.online_count());
}

TEST(Migration, NoChangeNoTraffic) {
  const auto inst = model::make_instance(small_params(), 6);
  util::Rng rng(6);
  const auto strategy = core::IddeG().solve(inst, rng);
  const auto plan =
      dynamic::plan_migration(inst, strategy.delivery, strategy.delivery);
  EXPECT_TRUE(plan.steps.empty());
  EXPECT_EQ(plan.total_mb, 0.0);
}

TEST(Migration, FromEmptyEverythingComesFromCloud) {
  const auto inst = model::make_instance(small_params(), 7);
  util::Rng rng(7);
  const auto strategy = core::IddeG().solve(inst, rng);
  const core::DeliveryProfile empty(inst);
  const auto plan = dynamic::plan_migration(inst, empty, strategy.delivery);
  EXPECT_EQ(plan.steps.size(), strategy.delivery.placement_count());
  EXPECT_EQ(plan.cloud_fetches, plan.steps.size());
  double expected_mb = 0.0;
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    expected_mb +=
        static_cast<double>(strategy.delivery.hosts(k).size()) *
        inst.data(k).size_mb;
  }
  EXPECT_NEAR(plan.total_mb, expected_mb, 1e-9);
}

TEST(Migration, PrefersEdgeSourceOverCloud) {
  const auto inst = model::make_instance(small_params(), 8);
  // previous: item 0 on server 0; next: item 0 on servers 0 and 1.
  core::DeliveryProfile previous(inst);
  previous.place(0, 0);
  core::DeliveryProfile next(inst);
  next.place(0, 0);
  next.place(1, 0);
  const auto plan = dynamic::plan_migration(inst, previous, next);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].to_server, 1u);
  EXPECT_EQ(plan.steps[0].from_server, 0u);  // edge beats 600 MB/s cloud
  EXPECT_EQ(plan.cloud_fetches, 0u);
}

TEST(DynamicSimulation, RunsAndAggregates) {
  dynamic::DynamicParams params;
  params.base = small_params();
  params.steps = 20;
  params.resolve_period = 5;
  dynamic::DynamicSimulation sim(params, 42);
  const auto summary = sim.run();
  ASSERT_EQ(summary.steps.size(), 20u);
  EXPECT_GT(summary.mean_rate_mbps, 0.0);
  EXPECT_GT(summary.mean_latency_ms, 0.0);
  EXPECT_EQ(summary.total_resolves, 1u + 4u);  // t=0 plus steps 5,10,15,20
  EXPECT_GT(summary.total_distance_m, 0.0);
  int resolved_steps = 0;
  for (const auto& record : summary.steps) {
    if (record.resolved) ++resolved_steps;
    EXPECT_GE(record.rate_mbps, 0.0);
  }
  EXPECT_EQ(resolved_steps, 4);
}

TEST(DynamicSimulation, DeterministicPerSeed) {
  dynamic::DynamicParams params;
  params.base = small_params();
  params.steps = 10;
  params.resolve_period = 3;
  const auto a = dynamic::DynamicSimulation(params, 9).run();
  const auto b = dynamic::DynamicSimulation(params, 9).run();
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.steps[i].rate_mbps, b.steps[i].rate_mbps);
    EXPECT_DOUBLE_EQ(a.steps[i].latency_ms, b.steps[i].latency_ms);
  }
  EXPECT_DOUBLE_EQ(a.total_migration_mb, b.total_migration_mb);
}

TEST(DynamicSimulation, ResolvingBeatsNeverResolving) {
  dynamic::DynamicParams never;
  never.base = small_params();
  never.steps = 60;
  never.resolve_period = 0;
  dynamic::DynamicParams often = never;
  often.resolve_period = 10;
  double never_rate = 0.0;
  double often_rate = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    never_rate +=
        dynamic::DynamicSimulation(never, 100 + seed).run().mean_rate_mbps;
    often_rate +=
        dynamic::DynamicSimulation(often, 100 + seed).run().mean_rate_mbps;
  }
  EXPECT_GT(often_rate, never_rate);
}

TEST(DynamicSimulation, NoResolveNoMigrationTraffic) {
  dynamic::DynamicParams params;
  params.base = small_params();
  params.steps = 15;
  params.resolve_period = 0;
  const auto summary = dynamic::DynamicSimulation(params, 11).run();
  EXPECT_EQ(summary.total_migration_mb, 0.0);
  EXPECT_EQ(summary.total_handovers, 0u);
  EXPECT_EQ(summary.total_resolves, 1u);
}

TEST(DynamicSimulation, WarmStartUsesFewerMoves) {
  dynamic::DynamicParams warm;
  warm.base = small_params();
  warm.steps = 30;
  warm.resolve_period = 10;
  warm.warm_start = true;
  dynamic::DynamicParams cold = warm;
  cold.warm_start = false;
  std::size_t warm_moves = 0;
  std::size_t cold_moves = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    for (const auto& record :
         dynamic::DynamicSimulation(warm, 200 + seed).run().steps) {
      warm_moves += record.game_moves;
    }
    for (const auto& record :
         dynamic::DynamicSimulation(cold, 200 + seed).run().steps) {
      cold_moves += record.game_moves;
    }
  }
  EXPECT_LT(warm_moves, cold_moves);
}

}  // namespace

namespace {

using namespace idde;

TEST(Churn, InitialFractionRespected) {
  util::Rng rng(1);
  dynamic::ChurnParams params;
  params.initial_online_fraction = 0.5;
  dynamic::ChurnProcess churn(1000, params, rng);
  EXPECT_NEAR(static_cast<double>(churn.online_count()), 500.0, 60.0);
}

TEST(Churn, AllOnlineWhenFractionOne) {
  util::Rng rng(2);
  dynamic::ChurnProcess churn(50, dynamic::ChurnParams{}, rng);
  EXPECT_EQ(churn.online_count(), 50u);
}

TEST(Churn, NoRatesNoToggles) {
  util::Rng rng(3);
  dynamic::ChurnParams params;
  params.arrival_rate_hz = 0.0;
  params.mean_session_s = 0.0;  // disables departures
  dynamic::ChurnProcess churn(100, params, rng);
  EXPECT_EQ(churn.step(1000.0, rng), 0u);
  EXPECT_EQ(churn.online_count(), 100u);
}

TEST(Churn, ReachesSteadyStateBalance) {
  util::Rng rng(4);
  dynamic::ChurnParams params;
  params.arrival_rate_hz = 1.0 / 60.0;
  params.mean_session_s = 60.0;  // symmetric rates -> ~50% online
  params.initial_online_fraction = 1.0;
  dynamic::ChurnProcess churn(2000, params, rng);
  for (int step = 0; step < 600; ++step) churn.step(1.0, rng);
  EXPECT_NEAR(static_cast<double>(churn.online_count()), 1000.0, 120.0);
}

TEST(Churn, CountMatchesMask) {
  util::Rng rng(5);
  dynamic::ChurnParams params;
  params.initial_online_fraction = 0.7;
  dynamic::ChurnProcess churn(200, params, rng);
  for (int step = 0; step < 50; ++step) {
    churn.step(1.0, rng);
    std::size_t online = 0;
    for (std::size_t j = 0; j < 200; ++j) {
      if (churn.online(j)) ++online;
    }
    EXPECT_EQ(online, churn.online_count());
  }
}

TEST(DynamicSimulation, ChurnKeepsOfflineUsersUnallocated) {
  dynamic::DynamicParams params;
  params.base = small_params();
  params.steps = 30;
  params.resolve_period = 5;
  params.churn_enabled = true;
  params.churn.arrival_rate_hz = 1.0 / 30.0;
  params.churn.mean_session_s = 30.0;
  params.churn.initial_online_fraction = 0.6;
  const auto summary = dynamic::DynamicSimulation(params, 77).run();
  ASSERT_EQ(summary.steps.size(), 30u);
  for (const auto& record : summary.steps) {
    EXPECT_LE(record.online_users, 40u);
    EXPECT_GE(record.rate_mbps, 0.0);
  }
  // Some churn must have happened at these rates.
  std::size_t events = 0;
  for (const auto& record : summary.steps) events += record.churn_events;
  EXPECT_GT(events, 0u);
}

TEST(DynamicSimulation, ChurnMetricsDifferFromStatic) {
  dynamic::DynamicParams with;
  with.base = small_params();
  with.steps = 20;
  with.resolve_period = 5;
  with.churn_enabled = true;
  with.churn.initial_online_fraction = 0.3;
  with.churn.arrival_rate_hz = 0.0;   // nobody new arrives
  with.churn.mean_session_s = 0.0;    // nobody leaves
  dynamic::DynamicParams without = with;
  without.churn_enabled = false;
  const auto a = dynamic::DynamicSimulation(with, 88).run();
  const auto b = dynamic::DynamicSimulation(without, 88).run();
  // With only ~30% of users online there is less interference, so the
  // per-online-user average rate should be at least as high.
  EXPECT_GE(a.mean_rate_mbps, b.mean_rate_mbps * 0.95);
  for (const auto& record : a.steps) {
    EXPECT_LT(record.online_users, 20u);
  }
}

}  // namespace
