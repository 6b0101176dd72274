// Equivalence and property tests for the incremental, parallel
// best-response engine. The dirty-set cache, the batched kernel and the
// thread fan-out are pure scheduling and data-layout layers: for every
// update rule and thread count the game must replay the full-scan oracle's
// move sequence exactly (oracle::full_scan_game, per-slot benefit calls),
// and the cached benefits it carries must match a from-scratch
// recomputation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/game.hpp"
#include "model/instance_builder.hpp"
#include "model/instance_io.hpp"
#include "oracles/full_scan_game.hpp"
#include "oracles/radio_reference.hpp"
#include "radio/interference.hpp"
#include "util/json.hpp"

namespace {

using namespace idde;
using core::AllocationProfile;
using core::GameOptions;
using core::GameResult;
using core::IddeUGame;
using core::UpdateRule;
using model::InstanceParams;
using model::ProblemInstance;

constexpr UpdateRule kAllRules[] = {UpdateRule::kBestImprovement,
                                    UpdateRule::kFirstImprovement,
                                    UpdateRule::kAsyncSweep};

InstanceParams shape(std::size_t n, std::size_t m, std::size_t k = 3) {
  InstanceParams p;
  p.server_count = n;
  p.user_count = m;
  p.data_count = k;
  return p;
}

GameResult run_engine(const ProblemInstance& inst, UpdateRule rule,
                      std::size_t threads) {
  GameOptions options;
  options.rule = rule;
  options.threads = threads;
  return IddeUGame(inst, options).run();
}

GameResult run_oracle(const ProblemInstance& inst, UpdateRule rule) {
  GameOptions options;
  options.rule = rule;
  return oracle::full_scan_game(inst, options);
}

void expect_same_dynamics(const GameResult& expected, const GameResult& actual,
                          std::uint64_t seed, UpdateRule rule) {
  const auto tag = [&] {
    return ::testing::Message() << "seed " << seed << " rule "
                                << static_cast<int>(rule);
  };
  EXPECT_EQ(expected.moves, actual.moves) << tag();
  EXPECT_EQ(expected.rounds, actual.rounds) << tag();
  EXPECT_EQ(expected.converged, actual.converged) << tag();
  EXPECT_EQ(expected.frozen_users, actual.frozen_users) << tag();
  ASSERT_EQ(expected.allocation.size(), actual.allocation.size());
  for (std::size_t j = 0; j < expected.allocation.size(); ++j) {
    EXPECT_EQ(expected.allocation[j], actual.allocation[j])
        << tag() << " user " << j;
  }
}

// 20 seeded instances x 3 rules: the incremental engine must replay the
// full-scan oracle's dynamics exactly (same move count, same rounds, same
// final allocation), while doing strictly less SINR work.
TEST(IncrementalEngine, ReplaysFullScanDynamicsExactly) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const ProblemInstance inst = model::make_instance(shape(8, 40), seed);
    for (const UpdateRule rule : kAllRules) {
      const GameResult full = run_oracle(inst, rule);
      const GameResult inc = run_engine(inst, rule, 1);
      expect_same_dynamics(full, inc, seed, rule);
      EXPECT_LE(inc.benefit_evaluations, full.benefit_evaluations);
    }
  }
}

// The thread fan-out must not change the dynamics either (winner selection
// stays a deterministic serial scan over the refreshed cache). 150 users
// keep the initial all-dirty refresh above the engine's serial cutoff, so
// the pool really fans out.
TEST(IncrementalEngine, ParallelReplaysFullScanDynamics) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const ProblemInstance inst = model::make_instance(shape(10, 150), seed);
    for (const UpdateRule rule : kAllRules) {
      const GameResult full = run_oracle(inst, rule);
      for (const std::size_t threads :
           {std::size_t{1}, std::size_t{0}, std::size_t{3}}) {
        const GameResult inc = run_engine(inst, rule, threads);
        expect_same_dynamics(full, inc, seed, rule);
      }
    }
  }
}

// The cycle probe moves without reading any cached response, so the
// engine's run is the oracle's by construction: same moves, rounds, frozen
// users, and final benefits recomputed from scratch bit for bit.
TEST(IncrementalEngine, CycleProbeReplaysFullScan) {
  const ProblemInstance inst = model::make_instance(shape(10, 60), 9);
  GameOptions options;
  options.rule = UpdateRule::kCycleProbe;
  options.max_rounds = 200;
  options.budgeted = true;
  const GameResult full = oracle::full_scan_game(inst, options);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    options.threads = threads;
    const GameResult probe = IddeUGame(inst, options).run();
    expect_same_dynamics(full, probe, 9, options.rule);
    EXPECT_GT(probe.frozen_users, 0u);
    EXPECT_EQ(probe.benefit_evaluations, 0u);
    EXPECT_EQ(probe.final_benefits, full.final_benefits);
  }
}

// The point of the dirty set: a move perturbs only two channel slots, so
// on a paper-shaped instance most cached responses survive each round and
// the evaluation count collapses (the bench's acceptance bar is 3x; the
// margin here is far larger).
TEST(IncrementalEngine, SlashesBenefitEvaluations) {
  const ProblemInstance inst = model::make_instance(shape(20, 150, 5), 7);
  const GameResult full = run_oracle(inst, UpdateRule::kBestImprovement);
  const GameResult inc = run_engine(inst, UpdateRule::kBestImprovement, 1);
  EXPECT_GE(full.benefit_evaluations, 3 * inc.benefit_evaluations);
}

// Property: a converged incremental run with no frozen users is a Nash
// equilibrium (Definition 3) — the cache never hides an improving move.
TEST(IncrementalEngine, ConvergedProfileIsNashEquilibrium) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 30; seed < 42; ++seed) {
    const ProblemInstance inst = model::make_instance(shape(7, 30), seed);
    for (const UpdateRule rule : kAllRules) {
      const GameResult result = run_engine(inst, rule, 1);
      if (result.converged && result.frozen_users == 0) {
        EXPECT_TRUE(core::is_nash_equilibrium(inst, result.allocation))
            << "seed " << seed << " rule " << static_cast<int>(rule);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 20u);
}

// Randomized equivalence: the benefits the engine carried in its cache at
// convergence must match a from-scratch recomputation (benefit_reference,
// derived like sinr_reference) to 1e-12 — the incremental field and the
// dirty-set bookkeeping introduce no drift.
TEST(IncrementalEngine, CachedBenefitsMatchReferenceRecomputation) {
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    const ProblemInstance inst = model::make_instance(shape(9, 45), seed);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
      const GameResult result =
          run_engine(inst, UpdateRule::kBestImprovement, threads);
      ASSERT_EQ(result.final_benefits.size(), inst.user_count());
      for (std::size_t j = 0; j < inst.user_count(); ++j) {
        if (!result.allocation[j].allocated()) {
          EXPECT_EQ(result.final_benefits[j], 0.0);
          continue;
        }
        const double reference = oracle::benefit_reference(
            inst.radio_env(), result.allocation, j, result.allocation[j]);
        EXPECT_NEAR(result.final_benefits[j], reference, 1e-12)
            << "seed " << seed << " user " << j;
      }
    }
  }
}

// run_from with a warm profile: the incremental engine accepts an
// arbitrary starting allocation and still matches the full-scan replay.
TEST(IncrementalEngine, WarmStartReplaysFullScan) {
  const ProblemInstance inst = model::make_instance(shape(8, 40), 55);
  GameOptions options;
  const GameResult warm = IddeUGame(inst, options).run();
  // Perturb: drop every third user back to unallocated.
  AllocationProfile start = warm.allocation;
  for (std::size_t j = 0; j < start.size(); j += 3)
    start[j] = core::kUnallocated;
  for (const UpdateRule rule : kAllRules) {
    GameOptions rule_options;
    rule_options.rule = rule;
    const GameResult full = oracle::full_scan_game(inst, rule_options, start);
    const GameResult inc = IddeUGame(inst, rule_options).run_from(start);
    expect_same_dynamics(full, inc, 55, rule);
  }
}

// DUP-G-style candidate restriction composes with the cache.
TEST(IncrementalEngine, CandidateRestrictionReplaysFullScan) {
  const ProblemInstance inst = model::make_instance(shape(8, 40), 77);
  std::vector<std::vector<std::size_t>> candidates(inst.user_count());
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    const auto& covering = inst.covering_servers(j);
    // Keep every other covering server; some users end up with none.
    for (std::size_t c = 0; c < covering.size(); c += 2) {
      candidates[j].push_back(covering[c]);
    }
  }
  for (const UpdateRule rule : kAllRules) {
    GameOptions options;
    options.rule = rule;
    options.candidate_servers = &candidates;
    const GameResult full = oracle::full_scan_game(inst, options);
    const GameResult inc = IddeUGame(inst, options).run();
    expect_same_dynamics(full, inc, 77, rule);
  }
}

// The move budget freezes cycling users identically in both engines (the
// dirty set must not resurrect a frozen user's stale cache entry).
TEST(IncrementalEngine, MoveBudgetFreezesIdentically) {
  for (std::uint64_t seed = 200; seed < 206; ++seed) {
    const ProblemInstance inst = model::make_instance(shape(10, 60), seed);
    for (const UpdateRule rule : kAllRules) {
      GameOptions options;
      options.rule = rule;
      options.max_moves_per_user = 2;
      const GameResult full = oracle::full_scan_game(inst, options);
      const GameResult inc = IddeUGame(inst, options).run();
      expect_same_dynamics(full, inc, seed, rule);
    }
  }
}

// --- multi-block shapes ----------------------------------------------------
//
// The engine selects winners from per-block maxima over fixed blocks of 64
// users. Shapes just under, at and just over one block (63, 64, 65) and
// shapes spanning many blocks (300, 1000) must replay the oracle under
// every rule and thread count, from cold and warm starts, under a
// candidate restriction and under a move budget.

constexpr std::size_t kBlockShapes[] = {63, 64, 65, 300, 1000};

/// An instance with `m` users; the EUA user pool grows with m so the
/// 1000-user shape fits, and 100 servers cover most of those users.
ProblemInstance block_instance(std::size_t m) {
  InstanceParams p = shape(m < 300 ? 10 : m < 1000 ? 30 : 100, m);
  p.eua.user_count = std::max(p.eua.user_count, m);
  return model::make_instance(p, 500 + m);
}

/// Replays `start` under `options` in the oracle once and in the engine at
/// threads 1 and 3 (the 3-lane pool fans out every refresh of >= 64 dirty
/// users); returns the oracle's result.
GameResult expect_engine_replays(const ProblemInstance& inst,
                                 GameOptions options,
                                 const AllocationProfile& start) {
  const GameResult full = oracle::full_scan_game(inst, options, start);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    options.threads = threads;
    const GameResult inc = IddeUGame(inst, options).run_from(start);
    SCOPED_TRACE(::testing::Message() << "users " << inst.user_count()
                                      << " threads " << threads);
    expect_same_dynamics(full, inc, inst.user_count(), options.rule);
  }
  return full;
}

TEST(IncrementalEngine, MultiBlockShapesReplayFullScan) {
  for (const std::size_t m : kBlockShapes) {
    const ProblemInstance inst = block_instance(m);
    const AllocationProfile cold(m, core::kUnallocated);
    for (const UpdateRule rule : kAllRules) {
      GameOptions options;
      options.rule = rule;
      (void)expect_engine_replays(inst, options, cold);
    }
  }
}

TEST(IncrementalEngine, MultiBlockWarmStartReplaysFullScan) {
  for (const std::size_t m : kBlockShapes) {
    const ProblemInstance inst = block_instance(m);
    AllocationProfile start = IddeUGame(inst).run().allocation;
    for (std::size_t j = 0; j < start.size(); j += 3) {
      start[j] = core::kUnallocated;
    }
    for (const UpdateRule rule : kAllRules) {
      GameOptions options;
      options.rule = rule;
      (void)expect_engine_replays(inst, options, start);
    }
  }
}

TEST(IncrementalEngine, MultiBlockCandidateRestrictionReplaysFullScan) {
  for (const std::size_t m : kBlockShapes) {
    const ProblemInstance inst = block_instance(m);
    std::vector<std::vector<std::size_t>> candidates(m);
    for (std::size_t j = 0; j < m; ++j) {
      const auto& covering = inst.covering_servers(j);
      for (std::size_t c = 0; c < covering.size(); c += 2) {
        candidates[j].push_back(covering[c]);
      }
    }
    const AllocationProfile cold(m, core::kUnallocated);
    for (const UpdateRule rule : kAllRules) {
      GameOptions options;
      options.rule = rule;
      options.candidate_servers = &candidates;
      (void)expect_engine_replays(inst, options, cold);
    }
  }
}

// Freezing a user must drop its entry to -inf and push its block's best
// gain down: a frozen block best left in place would win the next round
// and the engine would move a user the oracle has frozen.
TEST(IncrementalEngine, MultiBlockMoveBudgetReplaysFullScan) {
  std::size_t frozen = 0;
  for (const std::size_t m : kBlockShapes) {
    const ProblemInstance inst = block_instance(m);
    const AllocationProfile cold(m, core::kUnallocated);
    for (const UpdateRule rule : kAllRules) {
      GameOptions options;
      options.rule = rule;
      options.max_moves_per_user = 2;
      frozen += expect_engine_replays(inst, options, cold).frozen_users;
    }
  }
  EXPECT_GT(frozen, 0u);
}

/// Two isolated servers far apart, one channel each, and `m` users of
/// which only `a` (near server 0) and `b` (near server 1) are covered.
/// Both see the same gain, power and noise, so their first moves gain
/// bit-equal benefits.
ProblemInstance twin_instance(std::size_t m, std::size_t a, std::size_t b) {
  util::JsonObject doc;
  doc["format"] = std::string("idde-instance-v1");
  doc["cloud_speed_mbps"] = 600.0;
  util::JsonArray servers;
  for (const double x : {0.0, 10000.0}) {
    util::JsonObject server;
    server["x"] = x;
    server["y"] = 0.0;
    server["radius_m"] = 100.0;
    server["storage_mb"] = 100.0;
    servers.emplace_back(std::move(server));
  }
  doc["servers"] = std::move(servers);
  util::JsonArray users;
  util::JsonArray requests;
  for (std::size_t j = 0; j < m; ++j) {
    util::JsonObject user;
    user["x"] = j == a ? 50.0 : j == b ? 10050.0 : 5000.0;
    user["y"] = j == a || j == b ? 0.0 : 5000.0;
    user["power_w"] = 1.0;
    user["max_rate_mbps"] = 200.0;
    users.emplace_back(std::move(user));
    requests.emplace_back(util::JsonArray{util::Json(0.0)});
  }
  doc["users"] = std::move(users);
  doc["requests"] = std::move(requests);
  util::JsonObject item;
  item["size_mb"] = 60.0;
  doc["data"] = util::JsonArray{util::Json(std::move(item))};
  util::JsonObject edge;
  edge["from"] = 0.0;
  edge["to"] = 1.0;
  edge["seconds_per_mb"] = 0.001;
  doc["edges"] = util::JsonArray{util::Json(std::move(edge))};
  util::JsonObject radio;
  radio["channels_per_server"] = 1.0;
  radio["noise_watts"] = 1e-20;
  radio["bandwidth_mbps"] =
      util::JsonArray{util::Json(200.0), util::Json(200.0)};
  util::JsonArray gains;
  for (std::size_t e = 0; e < 2 * m; ++e) gains.emplace_back(1e-6);
  radio["gain"] = std::move(gains);
  doc["radio"] = std::move(radio);
  return model::instance_from_string(util::Json(std::move(doc)).dump());
}

// Equal gains in different blocks: the lower index wins the round, as in
// the full scan's strict > over users in index order.
TEST(IncrementalEngine, EqualGainsAcrossBlocksPickLowerIndex) {
  constexpr std::size_t kUsers = 200;
  constexpr std::size_t kLow = 10;    // block 0
  constexpr std::size_t kHigh = 150;  // block 2
  const ProblemInstance inst = twin_instance(kUsers, kLow, kHigh);
  const GameResult both = IddeUGame(inst).run();
  ASSERT_TRUE(both.allocation[kLow].allocated());
  ASSERT_TRUE(both.allocation[kHigh].allocated());
  ASSERT_EQ(both.final_benefits[kLow], both.final_benefits[kHigh]);
  EXPECT_EQ(both.moves, 2u);

  for (const UpdateRule rule :
       {UpdateRule::kBestImprovement, UpdateRule::kFirstImprovement}) {
    GameOptions options;
    options.rule = rule;
    options.max_rounds = 1;
    options.budgeted = true;
    const GameResult first = IddeUGame(inst, options).run();
    EXPECT_EQ(first.moves, 1u);
    EXPECT_TRUE(first.allocation[kLow].allocated());
    EXPECT_FALSE(first.allocation[kHigh].allocated());
    expect_same_dynamics(oracle::full_scan_game(inst, options), first, 0,
                         rule);
  }
}

}  // namespace
