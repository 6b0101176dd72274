// Self-healing online controller: determinism, crash-consistent
// checkpoint/restore, watchdog containment of cycling dynamics, and
// mass-failure recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "serve/checkpoint.hpp"
#include "serve/controller.hpp"
#include "sim/paper.hpp"
#include "util/json.hpp"

namespace {

using namespace idde;

serve::ServeConfig small_config() {
  serve::ServeConfig config;
  config.base = sim::paper_default_params();
  config.base.server_count = 10;
  config.base.user_count = 40;
  config.base.data_count = 3;
  config.tick_seconds = 1.0;
  // Brisk churn so every run sees join/leave events.
  config.churn.arrival_rate_hz = 1.0 / 20.0;
  config.churn.mean_session_s = 40.0;
  config.churn.initial_online_fraction = 0.9;
  // Random server faults inside the run window.
  config.faults.horizon_s = 200.0;
  config.faults.server_mtbf_s = 120.0;
  config.faults.server_mttr_s = 8.0;
  config.sigma_refresh_period_ticks = 10;
  return config;
}

TEST(Serve, TrajectoryIsPureFunctionOfConfigAndSeed) {
  serve::ServeController a(small_config(), 7);
  serve::ServeController b(small_config(), 7);
  ASSERT_EQ(a.trajectory_hash(), b.trajectory_hash());
  for (int step = 0; step < 30; ++step) {
    const serve::TickReport ra = a.tick();
    const serve::TickReport rb = b.tick();
    ASSERT_EQ(a.trajectory_hash(), b.trajectory_hash()) << "tick " << step;
    ASSERT_EQ(ra.events, rb.events);
    ASSERT_EQ(ra.repairs, rb.repairs);
    ASSERT_EQ(ra.backlog, rb.backlog);
  }
  EXPECT_GT(a.status().events_total, 0u);
}

TEST(Serve, CheckpointRoundTripIsByteStable) {
  serve::ServeController a(small_config(), 11);
  for (int step = 0; step < 13; ++step) (void)a.tick();
  const std::string snapshot = a.checkpoint();

  serve::ServeController b(small_config(), 11);
  b.restore(snapshot);
  EXPECT_EQ(b.checkpoint(), snapshot);
  EXPECT_EQ(b.trajectory_hash(), a.trajectory_hash());
  EXPECT_EQ(b.current_tick(), a.current_tick());
}

// The acceptance gate: kill the process at an arbitrary event boundary,
// restore from the snapshot, and the remaining trajectory is bit-identical
// to the uninterrupted run — across 10 seeds with the cut point varying.
TEST(Serve, CrashRestoreResumesBitIdenticallyAcrossTenSeeds) {
  constexpr std::size_t kTicks = 32;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::size_t cut = 4 + static_cast<std::size_t>(seed * 7 % 21);

    serve::ServeController uninterrupted(small_config(), seed);
    for (std::size_t step = 0; step < kTicks; ++step) {
      (void)uninterrupted.tick();
    }

    serve::ServeController victim(small_config(), seed);
    for (std::size_t step = 0; step < cut; ++step) (void)victim.tick();
    const std::string snapshot = victim.checkpoint();
    // "Kill" the victim: the survivor starts from scratch and only sees
    // the snapshot.
    serve::ServeController survivor(small_config(), seed);
    survivor.restore(snapshot);
    for (std::size_t step = cut; step < kTicks; ++step) {
      (void)survivor.tick();
    }

    EXPECT_EQ(survivor.trajectory_hash(), uninterrupted.trajectory_hash())
        << "seed " << seed << " cut " << cut;
    EXPECT_EQ(survivor.status().events_total,
              uninterrupted.status().events_total)
        << "seed " << seed;
    EXPECT_EQ(survivor.status().repairs_total,
              uninterrupted.status().repairs_total)
        << "seed " << seed;
  }
}

// A controller that has run ahead holds state from a later tick, the
// tick's repair record included. Restoring an earlier snapshot into it
// must still resume exactly like the uninterrupted run.
TEST(Serve, RestoreIntoAControllerThatRanAheadResumesBitIdentically) {
  constexpr std::size_t kTicks = 36;
  constexpr std::size_t kCut = 12;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    serve::ServeController uninterrupted(small_config(), seed);
    std::vector<std::uint64_t> hashes;
    std::string snapshot;
    for (std::size_t step = 0; step < kTicks; ++step) {
      (void)uninterrupted.tick();
      hashes.push_back(uninterrupted.trajectory_hash());
      if (step + 1 == kCut) snapshot = uninterrupted.checkpoint();
    }

    serve::ServeController ahead(small_config(), seed);
    for (std::size_t step = 0; step < kTicks; ++step) (void)ahead.tick();
    ahead.restore(snapshot);
    for (std::size_t step = kCut; step < kTicks; ++step) {
      (void)ahead.tick();
      ASSERT_EQ(ahead.trajectory_hash(), hashes[step])
          << "seed " << seed << " tick " << step;
    }
    EXPECT_EQ(ahead.status().repairs_total,
              uninterrupted.status().repairs_total)
        << "seed " << seed;
    EXPECT_EQ(ahead.status().repair_moves_total,
              uninterrupted.status().repair_moves_total)
        << "seed " << seed;
  }
}

TEST(Serve, RestoreRejectsCorruptedSnapshots) {
  serve::ServeController a(small_config(), 3);
  for (int step = 0; step < 5; ++step) (void)a.tick();
  const std::string snapshot = a.checkpoint();

  // Truncation fails to parse.
  {
    serve::ServeController b(small_config(), 3);
    EXPECT_THROW(b.restore(snapshot.substr(0, snapshot.size() / 2)),
                 util::JsonError);
  }
  // A single flipped payload character breaks the checksum.
  {
    std::string corrupted = snapshot;
    const std::size_t mask_pos = corrupted.find("\"churn_mask\":\"");
    ASSERT_NE(mask_pos, std::string::npos);
    char& bit = corrupted[mask_pos + 14];
    bit = bit == '1' ? '0' : '1';
    serve::ServeController b(small_config(), 3);
    EXPECT_THROW(b.restore(corrupted), util::JsonError);
  }
  // Unknown format tag.
  {
    serve::ServeController b(small_config(), 3);
    EXPECT_THROW(b.restore(R"({"format":"bogus","checksum":"00"})"),
                 util::JsonError);
  }
  // Checksum field stripped.
  {
    util::Json payload = util::Json::parse(snapshot);
    payload.as_object().erase("checksum");
    serve::ServeController b(small_config(), 3);
    EXPECT_THROW(b.restore(payload.dump(-1)), util::JsonError);
  }
  // Valid snapshot, wrong seed: the guard hash refuses it.
  {
    serve::ServeController b(small_config(), 4);
    EXPECT_THROW(b.restore(snapshot), util::JsonError);
  }
  // Valid snapshot, different retry budget: the budget gates every backlog
  // retry, so the guard hash refuses it too.
  {
    serve::ServeConfig budgeted = small_config();
    budgeted.retry.ratio = 0.1;
    budgeted.retry.burst = 2.0;
    serve::ServeController b(budgeted, 3);
    EXPECT_THROW(b.restore(snapshot), util::JsonError);
  }
}

// Restore must refuse mobility state that no walk can produce: a
// non-finite position or waypoint, a speed that is non-finite or <= 0, or
// a pause that is non-finite or < 0. Each case reseals the edited payload,
// so the checksum passes and only the value checks can refuse it.
TEST(Serve, RestoreRejectsNonFiniteMobilityState) {
  serve::ServeController a(small_config(), 3);
  for (int step = 0; step < 5; ++step) (void)a.tick();
  const std::string snapshot = a.checkpoint();
  {
    // Resealing an unedited payload restores: the edits below are the
    // only reason a case is refused.
    serve::ServeController b(small_config(), 3);
    EXPECT_NO_THROW(
        b.restore(serve::seal_checkpoint(serve::open_checkpoint(snapshot))));
  }

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* array;
    std::size_t index;
    double value;
  };
  // positions = [x_0, y_0, ...]; walks = [wx_0, wy_0, speed_0, pause_0, ...].
  const Case cases[] = {
      {"positions", 0, nan}, {"positions", 1, inf}, {"positions", 1, -inf},
      {"walks", 0, nan},     {"walks", 1, inf},     {"walks", 2, 0.0},
      {"walks", 2, -1.0},    {"walks", 2, nan},     {"walks", 2, inf},
      {"walks", 3, -1.0},    {"walks", 3, nan},     {"walks", 3, inf},
  };
  for (const Case& c : cases) {
    util::Json payload = serve::open_checkpoint(snapshot);
    util::JsonObject& mobility =
        payload.as_object().at("mobility").as_object();
    mobility.at(c.array).as_array().at(c.index) =
        serve::double_to_bits(c.value);
    serve::ServeController b(small_config(), 3);
    EXPECT_THROW(b.restore(serve::seal_checkpoint(std::move(payload))),
                 util::JsonError)
        << c.array << "[" << c.index << "] = " << c.value;
  }
}

// The recorded sigma headroom is derived from the placements, so restore
// refuses a resealed snapshot whose headroom differs from the replayed
// ledger by any bit — even when the value is in range for its server.
TEST(Serve, RestoreRejectsHeadroomThatContradictsPlacements) {
  serve::ServeController a(small_config(), 3);
  for (int step = 0; step < 5; ++step) (void)a.tick();
  const std::string snapshot = a.checkpoint();
  const util::Json pristine = serve::open_checkpoint(snapshot);
  const util::JsonArray& recorded = pristine.at("sigma_free_mb").as_array();
  std::vector<double> free_mb;
  for (const util::Json& bits : recorded) {
    free_mb.push_back(serve::bits_to_double(bits, "sigma_free_mb"));
  }
  const std::size_t roomiest = static_cast<std::size_t>(
      std::max_element(free_mb.begin(), free_mb.end()) - free_mb.begin());
  ASSERT_GE(free_mb[roomiest], 1.0);

  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    std::size_t server;
    double value;
  };
  const Case cases[] = {
      {roomiest, free_mb[roomiest] - 1.0},           // 1 MB shaved
      {roomiest, free_mb[roomiest] - 1.0 / 1024.0},  // one KB
      {0, std::nextafter(free_mb[0], inf)},          // one ulp up
      {0, std::nextafter(free_mb[0], -inf)},         // one ulp down
  };
  for (const Case& c : cases) {
    util::Json payload = serve::open_checkpoint(snapshot);
    payload.as_object().at("sigma_free_mb").as_array().at(c.server) =
        serve::double_to_bits(c.value);
    serve::ServeController b(small_config(), 3);
    EXPECT_THROW(b.restore(serve::seal_checkpoint(std::move(payload))),
                 util::JsonError)
        << "sigma_free_mb[" << c.server << "] = " << c.value;
  }
}

// Eq. 1: restore refuses an allocation slot on a server that does not
// cover its user. A down server is the case that matters: derive_events
// unallocates stranded users only on up servers, so such a slot would
// reach the interference model's Eq. 1 assert at the next repair. The LKG
// allocation is exempt, because restore_lkg sanitises it before use.
TEST(Serve, RestoreRejectsAllocationOutsideCoverage) {
  serve::ServeConfig config = small_config();
  config.faults.server_mtbf_s = 0.0;
  config.flash_failure_tick = 5;
  config.flash_failure_fraction = 0.5;
  config.flash_failure_duration_ticks = 20;
  serve::ServeController a(config, 5);
  for (int step = 0; step < 10; ++step) (void)a.tick();
  const std::string snapshot = a.checkpoint();

  // Server 0 is a flash victim, down from tick 5 to tick 25.
  const model::ProblemInstance& instance = a.instance();
  const auto covers = [&](std::size_t server, std::size_t user) {
    const auto& covering = instance.covering_servers(user);
    return std::binary_search(covering.begin(), covering.end(), server);
  };
  std::size_t user = 0;
  while (user < instance.user_count() &&
         (covers(0, user) || instance.covering_servers(user).empty())) {
    ++user;
  }
  ASSERT_LT(user, instance.user_count());

  const auto moved = [&](const char* server_key, const char* channel_key,
                         std::size_t server) {
    util::Json payload = serve::open_checkpoint(snapshot);
    util::JsonObject& root = payload.as_object();
    root.at(server_key).as_array().at(user) = serve::u64_to_hex(server);
    root.at(channel_key).as_array().at(user) = serve::u64_to_hex(0);
    return serve::seal_checkpoint(std::move(payload));
  };
  {
    serve::ServeController b(config, 5);
    EXPECT_THROW(b.restore(moved("alloc_server", "alloc_channel", 0)),
                 util::JsonError);
  }
  {
    serve::ServeController b(config, 5);
    EXPECT_NO_THROW(
        b.restore(moved("lkg_alloc_server", "lkg_alloc_channel", 0)));
  }
  // A covering server still restores, and the run goes on.
  const std::size_t covering = instance.covering_servers(user).front();
  serve::ServeController b(config, 5);
  EXPECT_NO_THROW(
      b.restore(moved("alloc_server", "alloc_channel", covering)));
  for (int step = 0; step < 3; ++step) (void)b.tick();
}

// Inject the adversarial cycling rule as the repair rule. The controller
// must complete the run (never hang), catch the non-descending repairs via
// the potential watchdog, trip the breaker and fall back to the
// last-known-good profile.
TEST(Serve, WatchdogContainsCyclingRepairRule) {
  serve::ServeConfig config = small_config();
  config.repair_rule = core::UpdateRule::kCycleProbe;
  config.repair_rounds_per_event = 64;
  config.watchdog_suspect_moves = 32;
  config.watchdog_strike_limit = 2;
  config.watchdog_cooldown_ticks = 4;
  serve::ServeController controller(config, 5);
  for (int step = 0; step < 80; ++step) (void)controller.tick();

  const serve::ServeStatus& status = controller.status();
  EXPECT_EQ(status.ticks, 80u);
  EXPECT_GT(status.events_total, 0u);
  EXPECT_GE(status.watchdog_strikes, config.watchdog_strike_limit);
  EXPECT_GE(status.breaker_trips, 1u);
  EXPECT_GE(status.lkg_restores, 1u);
  // The fallback must stay structurally valid: allocated users point at
  // real servers.
  for (const core::ChannelSlot& slot : controller.allocation()) {
    if (slot.allocated()) {
      EXPECT_LT(slot.server, controller.instance().server_count());
    }
  }
}

TEST(Serve, SolverThreadCountDoesNotChangeTrajectory) {
  serve::ServeConfig serial = small_config();
  serial.solver_threads = 1;
  serve::ServeConfig threaded = small_config();
  threaded.solver_threads = 4;
  serve::ServeController a(serial, 13);
  serve::ServeController b(threaded, 13);
  for (int step = 0; step < 12; ++step) {
    (void)a.tick();
    (void)b.tick();
    ASSERT_EQ(a.trajectory_hash(), b.trajectory_hash()) << "tick " << step;
  }
}

// Fault-free, churn-free serving must stay essentially non-degraded: the
// only events are stranded walkers and periodic sigma refreshes, and each
// repairs to convergence within its budget.
TEST(Serve, FaultFreeRunStaysHealthy) {
  serve::ServeConfig config = small_config();
  config.churn_enabled = false;
  config.faults = fault::FaultProfile{};
  serve::ServeController controller(config, 17);
  for (int step = 0; step < 40; ++step) (void)controller.tick();
  const serve::ServeStatus& status = controller.status();
  EXPECT_EQ(status.breaker_trips, 0u);
  // Acceptance gate: degraded-time fraction < 5% fault-free.
  EXPECT_LT(status.degraded_ticks * 20, status.ticks);
}

TEST(Serve, FlashFailureIsRepairedAndRecoveryTimed) {
  serve::ServeConfig config = small_config();
  config.churn_enabled = false;
  config.faults = fault::FaultProfile{};
  config.flash_failure_tick = 8;
  config.flash_failure_fraction = 0.4;
  config.flash_failure_duration_ticks = 6;
  // Starve the per-event budgets so healing a mass failure takes several
  // ticks and the degraded window is observable.
  config.repair_rounds_per_event = 2;
  config.repair_placements_per_event = 2;
  config.backlog_drain_per_tick = 1;
  serve::ServeController controller(config, 23);
  bool saw_degraded = false;
  for (int step = 0; step < 50; ++step) {
    const serve::TickReport report = controller.tick();
    if (report.degraded) saw_degraded = true;
  }
  const serve::ServeStatus& status = controller.status();
  EXPECT_TRUE(saw_degraded);
  EXPECT_GT(status.events_total, 0u);
  // Recovery completed and was timed.
  EXPECT_GT(status.recovery_ticks, 0u);
  EXPECT_LT(status.recovery_ticks, 40u);
  // After recovery with every server back, no user may still be parked on
  // an unreachable slot.
  for (std::size_t j = 0; j < controller.allocation().size(); ++j) {
    const core::ChannelSlot& slot = controller.allocation()[j];
    if (slot.allocated()) {
      EXPECT_LT(slot.server, controller.instance().server_count());
    }
  }
}

// Within one tick, an equilibrium repair whose start profile repeats the
// last repair's start replays that result instead of solving again. Every
// equilibrium repair is either a solve or a replay, replays do happen, and
// recording telemetry changes nothing.
TEST(Serve, EquilibriumReplaysAreCountedAndExact) {
  constexpr int kTicks = 60;
  serve::ServeController quiet(small_config(), 3);
  for (int step = 0; step < kTicks; ++step) (void)quiet.tick();

  obs::reset_all();
  obs::set_enabled(true);
  serve::ServeController observed(small_config(), 3);
  for (int step = 0; step < kTicks; ++step) (void)observed.tick();
  obs::set_enabled(false);
  const util::Json telemetry = obs::telemetry_json();
  obs::reset_all();

  EXPECT_EQ(observed.trajectory_hash(), quiet.trajectory_hash());
  EXPECT_EQ(observed.status().repairs_total, quiet.status().repairs_total);
#if IDDE_OBS
  const auto counter = [&](const char* name) {
    const util::Json* value = telemetry.at("counters").find(name);
    return value == nullptr ? std::int64_t{0} : value->as_int();
  };
  const auto spans = [&](const char* name) {
    const util::Json* span = telemetry.at("spans").find(name);
    return span == nullptr ? std::int64_t{0} : span->at("count").as_int();
  };
  const std::int64_t solves = counter("serve.equilibrium_solves_total");
  const std::int64_t replays = counter("serve.equilibrium_replays_total");
  EXPECT_GT(solves, 0);
  EXPECT_GT(replays, 0);
  EXPECT_EQ(solves + replays, spans("serve.repair.equilibrium"));
  EXPECT_EQ(solves + replays + spans("serve.repair.sigma"),
            static_cast<std::int64_t>(observed.status().repairs_total));
  EXPECT_EQ(spans("serve.world"), kTicks);
#else
  (void)telemetry;
#endif
}

}  // namespace
