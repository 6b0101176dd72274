// Equivalence and property tests for the incremental, parallel
// best-response engine. The dirty-set cache, the batched kernel and the
// thread fan-out are pure scheduling and data-layout layers: for every
// update rule and thread count the game must replay the full-scan oracle's
// move sequence exactly (oracle::full_scan_game, per-slot benefit calls),
// and the cached benefits it carries must match a from-scratch
// recomputation.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/game.hpp"
#include "model/instance_builder.hpp"
#include "oracles/full_scan_game.hpp"
#include "radio/interference.hpp"

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
        const double reference = radio::benefit_reference(
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
  for (std::size_t j = 0; j < start.size(); j += 3) start[j] = core::kUnallocated;
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

}  // namespace
