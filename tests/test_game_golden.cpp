// Golden digests of the IDDE-U game and of its two time-stepped callers.
//
// The game cases fold every GameResult field — allocation, moves, rounds,
// converged, frozen users, benefit evaluations and the bits of every final
// benefit — into one FNV-1a digest per seed, for each update rule at one
// and at three solver threads, with full coverage and with a DUP-G-style
// candidate restriction. The cycle-probe cases pin the adversarial
// watchdog rule under a 200-round cap. The serve cases pin the controller
// trajectory and the repair and watchdog counters of the default and the
// watchdog-containment scenarios, and the dynamic cases fold every
// StepRecord field of the mobility loop for two re-solve periods with
// churn off and on. The pinned values are exact, so a rewrite of the game
// engine must reproduce them bit for bit.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "core/game.hpp"
#include "dynamic/simulation.hpp"
#include "model/instance_builder.hpp"
#include "serve/controller.hpp"
#include "sim/paper.hpp"

namespace {

using namespace idde;
using core::UpdateRule;

constexpr std::array<std::uint64_t, 4> kSeeds{1, 2, 3, 4};
using Digests = std::array<std::uint64_t, kSeeds.size()>;

class Fnv {
 public:
  void mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix(double value) { mix(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

std::uint64_t digest(const core::GameResult& result) {
  Fnv fnv;
  fnv.mix(std::uint64_t{result.allocation.size()});
  for (const core::ChannelSlot& slot : result.allocation) {
    fnv.mix(std::uint64_t{slot.server});
    fnv.mix(std::uint64_t{slot.channel});
  }
  fnv.mix(std::uint64_t{result.moves});
  fnv.mix(std::uint64_t{result.rounds});
  fnv.mix(std::uint64_t{result.converged});
  fnv.mix(std::uint64_t{result.frozen_users});
  fnv.mix(std::uint64_t{result.benefit_evaluations});
  fnv.mix(std::uint64_t{result.final_benefits.size()});
  for (const double benefit : result.final_benefits) fnv.mix(benefit);
  return fnv.value();
}

/// 150 users keep the initial all-dirty refresh above the engine's serial
/// cutoff, so the three-thread cases really fan out.
model::ProblemInstance game_instance(std::uint64_t seed) {
  model::InstanceParams params = sim::paper_default_params();
  params.server_count = 10;
  params.user_count = 150;
  params.data_count = 3;
  return model::make_instance(params, seed);
}

/// DUP-G-style restriction: every other covering server, so some users
/// have no candidate at all and stay unallocated.
std::vector<std::vector<std::size_t>> restricted_candidates(
    const model::ProblemInstance& instance) {
  std::vector<std::vector<std::size_t>> candidates(instance.user_count());
  for (std::size_t j = 0; j < instance.user_count(); ++j) {
    const auto& covering = instance.covering_servers(j);
    for (std::size_t c = j % 2; c < covering.size(); c += 2) {
      candidates[j].push_back(covering[c]);
    }
  }
  return candidates;
}

Digests game_digests(UpdateRule rule, std::size_t threads, bool restricted,
                     std::size_t max_rounds = 1'000'000) {
  Digests digests{};
  for (std::size_t s = 0; s < kSeeds.size(); ++s) {
    const model::ProblemInstance instance = game_instance(kSeeds[s]);
    const auto candidates = restricted_candidates(instance);
    core::GameOptions options;
    options.rule = rule;
    options.threads = threads;
    options.max_rounds = max_rounds;
    options.budgeted = true;
    if (restricted) options.candidate_servers = &candidates;
    digests[s] = digest(core::IddeUGame(instance, options).run());
  }
  return digests;
}

void expect_digests(const Digests& actual, const Digests& pinned) {
  for (std::size_t s = 0; s < kSeeds.size(); ++s) {
    EXPECT_EQ(hex(actual[s]), hex(pinned[s])) << "seed " << kSeeds[s];
  }
}

TEST(GameGolden, BestImprovement) {
  const Digests pinned{
      0x23c8ce222b5aebebULL, 0x56f2d277c3b372d8ULL,
      0xa4872545ec3bd7d8ULL, 0x5db144e7b6cc1039ULL};
  expect_digests(game_digests(UpdateRule::kBestImprovement, 1, false),
                 pinned);
  expect_digests(game_digests(UpdateRule::kBestImprovement, 3, false),
                 pinned);
}

TEST(GameGolden, FirstImprovement) {
  const Digests pinned{
      0x967156bbea9c3d1fULL, 0xe076cde5623b0f1dULL,
      0xc9d9ec5c3e58ba4fULL, 0x382103fe5bfd36e6ULL};
  expect_digests(game_digests(UpdateRule::kFirstImprovement, 1, false),
                 pinned);
  expect_digests(game_digests(UpdateRule::kFirstImprovement, 3, false),
                 pinned);
}

// The fan-out refreshes the accumulated dirty set speculatively before
// each sweep, so the evaluation count (and only it) differs by threads.
TEST(GameGolden, AsyncSweep) {
  const Digests serial{
      0x82212b1620981be1ULL, 0x24602a5cd6b6978cULL,
      0xa9fc301fbf409190ULL, 0x5694f562ca8116feULL};
  const Digests fanned_out{
      0xaf76d59d8a37a441ULL, 0x200321e77f507753ULL,
      0x772128e469bfc278ULL, 0x9c55ba16abcca44dULL};
  expect_digests(game_digests(UpdateRule::kAsyncSweep, 1, false), serial);
  expect_digests(game_digests(UpdateRule::kAsyncSweep, 3, false), fanned_out);
}

TEST(GameGolden, RestrictedCandidates) {
  const Digests best{
      0x8ceade405677da9cULL, 0xbf7ea9f12af064d7ULL,
      0xf128f882235053a2ULL, 0x7d7da0bf310e9a74ULL};
  const Digests async{
      0x969691fedcff5ae1ULL, 0xbf1dad383c36db4eULL,
      0x2c55bb5471631670ULL, 0xb43f4254f3a15223ULL};
  expect_digests(game_digests(UpdateRule::kBestImprovement, 1, true), best);
  expect_digests(game_digests(UpdateRule::kAsyncSweep, 3, true), async);
}

TEST(GameGolden, CycleProbe) {
  const Digests full{
      0xad25e194d25461f2ULL, 0xd1af24fbdc967309ULL,
      0x7ec04cb1aedb446bULL, 0xe99a705cac2f75b8ULL};
  expect_digests(game_digests(UpdateRule::kCycleProbe, 1, false, 200), full);
  expect_digests(game_digests(UpdateRule::kCycleProbe, 3, false, 200), full);
  const Digests restricted{
      0x685b05e53b3f0119ULL, 0x8b411ab2e8ee6a36ULL,
      0xe5d835853edc7de9ULL, 0x474f7e6ba0a09a37ULL};
  expect_digests(game_digests(UpdateRule::kCycleProbe, 1, true, 200),
                 restricted);
  expect_digests(game_digests(UpdateRule::kCycleProbe, 3, true, 200),
                 restricted);
}

// --- serve: the watchdog-containment scenario -------------------------------

serve::ServeConfig small_serve_config() {
  serve::ServeConfig config;
  config.base = sim::paper_default_params();
  config.base.server_count = 10;
  config.base.user_count = 40;
  config.base.data_count = 3;
  config.tick_seconds = 1.0;
  config.churn.arrival_rate_hz = 1.0 / 20.0;
  config.churn.mean_session_s = 40.0;
  config.churn.initial_online_fraction = 0.9;
  config.faults.horizon_s = 200.0;
  config.faults.server_mtbf_s = 120.0;
  config.faults.server_mttr_s = 8.0;
  config.sigma_refresh_period_ticks = 10;
  return config;
}

std::uint64_t serve_hash(const serve::ServeConfig& config) {
  serve::ServeController controller(config, 5);
  for (int tick = 0; tick < 80; ++tick) (void)controller.tick();
  return controller.trajectory_hash();
}

serve::ServeConfig watchdog_serve_config() {
  serve::ServeConfig config = small_serve_config();
  config.repair_rule = UpdateRule::kCycleProbe;
  config.repair_rounds_per_event = 64;
  config.watchdog_suspect_moves = 32;
  config.watchdog_strike_limit = 2;
  config.watchdog_cooldown_ticks = 4;
  return config;
}

TEST(GameGolden, ServeWatchdogTrajectory) {
  EXPECT_EQ(hex(serve_hash(watchdog_serve_config())),
            hex(0x60e40a2dcd1a7bd6ULL));
}

TEST(GameGolden, ServeDefaultTrajectory) {
  EXPECT_EQ(hex(serve_hash(small_serve_config())), hex(0xf4e78f1ea5930e87ULL));
}

// The trajectory hash folds allocations, sigma and breaker state but not
// the repair and watchdog counters, so these pin them separately.
serve::ServeStatus serve_status(const serve::ServeConfig& config) {
  serve::ServeController controller(config, 5);
  for (int tick = 0; tick < 80; ++tick) (void)controller.tick();
  return controller.status();
}

TEST(GameGolden, ServeRepairCounters) {
  const serve::ServeStatus plain = serve_status(small_serve_config());
  EXPECT_EQ(plain.repairs_total, 159u);
  EXPECT_EQ(plain.repair_rounds_total, 216u);
  EXPECT_EQ(plain.repair_moves_total, 82u);
  EXPECT_EQ(plain.potential_checks, 0u);
  EXPECT_EQ(plain.watchdog_strikes, 0u);
  EXPECT_EQ(plain.breaker_trips, 0u);
  EXPECT_EQ(plain.lkg_restores, 0u);

  const serve::ServeStatus watchdog = serve_status(watchdog_serve_config());
  EXPECT_EQ(watchdog.repairs_total, 41u);
  EXPECT_EQ(watchdog.repair_rounds_total, 2432u);
  EXPECT_EQ(watchdog.repair_moves_total, 2432u);
  EXPECT_EQ(watchdog.potential_checks, 38u);
  EXPECT_EQ(watchdog.watchdog_strikes, 21u);
  EXPECT_EQ(watchdog.breaker_trips, 20u);
  EXPECT_EQ(watchdog.lkg_restores, 20u);
}

// --- dynamic: the mobility re-solve loop ------------------------------------

std::uint64_t dynamic_digest(std::size_t resolve_period, bool churn) {
  dynamic::DynamicParams params;
  params.base = sim::paper_default_params();
  params.base.server_count = 10;
  params.base.user_count = 40;
  params.base.data_count = 3;
  params.steps = 12;
  params.resolve_period = resolve_period;
  params.churn_enabled = churn;
  params.churn.arrival_rate_hz = 1.0 / 20.0;
  params.churn.mean_session_s = 20.0;
  const dynamic::DynamicSummary summary =
      dynamic::DynamicSimulation(params, 21).run();
  Fnv fnv;
  fnv.mix(std::uint64_t{summary.steps.size()});
  for (const dynamic::StepRecord& step : summary.steps) {
    fnv.mix(step.time_s);
    fnv.mix(step.rate_mbps);
    fnv.mix(step.latency_ms);
    fnv.mix(std::uint64_t{step.dropped_users});
    fnv.mix(std::uint64_t{step.resolved});
    fnv.mix(std::uint64_t{step.handovers});
    fnv.mix(step.migration_mb);
    fnv.mix(std::uint64_t{step.game_moves});
    fnv.mix(std::uint64_t{step.online_users});
    fnv.mix(std::uint64_t{step.churn_events});
  }
  fnv.mix(summary.mean_rate_mbps);
  fnv.mix(summary.mean_latency_ms);
  fnv.mix(std::uint64_t{summary.total_handovers});
  fnv.mix(std::uint64_t{summary.total_resolves});
  fnv.mix(summary.total_migration_mb);
  fnv.mix(summary.total_distance_m);
  return fnv.value();
}

TEST(GameGolden, DynamicSolveOnce) {
  EXPECT_EQ(hex(dynamic_digest(0, false)), hex(0xaa80a4a441f35471ULL));
  EXPECT_EQ(hex(dynamic_digest(0, true)), hex(0xb5938f27252c2ac4ULL));
}

TEST(GameGolden, DynamicResolveEveryFourSteps) {
  EXPECT_EQ(hex(dynamic_digest(4, false)), hex(0xb0832b95c826d52dULL));
  EXPECT_EQ(hex(dynamic_digest(4, true)), hex(0x4b6befb913d8f060ULL));
}

}  // namespace
