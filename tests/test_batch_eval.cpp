// Property tests pinning radio::BatchEvaluator to the scalar slot
// evaluators. Two tiers of agreement are enforced:
//
//   - BIT-IDENTITY against InterferenceField::sinr()/benefit(): the batched
//     kernel promises the exact same floating-point results (same ops, same
//     association order), so the comparison is operator==, not EXPECT_NEAR.
//     This is what lets the game swap kernels without its move sequences
//     diverging.
//   - 1e-12 relative agreement against sinr_reference()/benefit_reference():
//     the from-scratch O(M) oracles accumulate in a different order, so only
//     tolerance-level agreement is meaningful there.
//
// The sweep runs 24 seeds of randomized environments and allocations,
// deliberately covering: unallocated users, emptied channels (add/remove
// churn so users_on hits 0), single-coverage users (the inline fast path),
// and candidate SUBSETS of the coverage set (the DUP-G restriction) — the
// last one pins the contract that interference is always accumulated over
// the full coverage set even when candidates are restricted.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

#include "radio/batch_eval.hpp"
#include "radio/interference.hpp"
#include "util/random.hpp"

namespace {

using idde::radio::BatchEvaluator;
using idde::radio::ChannelSlot;
using idde::radio::InterferenceField;
using idde::radio::RadioEnvironment;
using idde::radio::kUnallocated;
using idde::util::Rng;

RadioEnvironment make_env(std::size_t servers, std::size_t users,
                          std::size_t channels, Rng& rng,
                          double coverage_prob) {
  RadioEnvironment env;
  env.server_count = servers;
  env.user_count = users;
  env.channels_per_server = channels;
  env.noise_watts = 1e-13;
  env.power.resize(users);
  env.bandwidth.assign(servers * channels, 200.0);
  for (std::size_t j = 0; j < users; ++j) {
    env.power[j] = rng.uniform(1.0, 5.0);
  }
  std::vector<double> dense(servers * users);  // row-major N x M
  for (std::size_t i = 0; i < servers; ++i) {
    for (std::size_t j = 0; j < users; ++j) {
      const double d = rng.uniform(50.0, 250.0);
      dense[i * users + j] = std::pow(d, -3.0);
    }
  }
  env.covering_servers.resize(users);
  for (std::size_t j = 0; j < users; ++j) {
    for (std::size_t i = 0; i < servers; ++i) {
      if (rng.bernoulli(coverage_prob)) env.covering_servers[j].push_back(i);
    }
    if (env.covering_servers[j].empty()) {
      env.covering_servers[j].push_back(rng.index(servers));
    }
  }
  // Every server neighbours every other, so each user stores its whole
  // dense column and the gains are the values drawn above.
  env.neighbours.assign(servers, std::vector<std::size_t>(servers));
  for (auto& nbr : env.neighbours) std::iota(nbr.begin(), nbr.end(), 0);
  env.index_reach();
  for (std::size_t j = 0; j < users; ++j) {
    for (std::size_t i = 0; i < servers; ++i) {
      env.gains(j)[i] = dense[i * users + j];
    }
  }
  env.check();
  return env;
}

/// Random allocation within coverage; allocate_prob < 1 leaves some users
/// unallocated so the no-current-slot paths are exercised.
std::vector<ChannelSlot> random_alloc(const RadioEnvironment& env, Rng& rng,
                                      double allocate_prob) {
  std::vector<ChannelSlot> alloc(env.user_count, kUnallocated);
  for (std::size_t j = 0; j < env.user_count; ++j) {
    if (!rng.bernoulli(allocate_prob)) continue;
    const auto& cov = env.covering_servers[j];
    alloc[j] = ChannelSlot{cov[rng.index(cov.size())],
                           rng.index(env.channels_per_server)};
  }
  return alloc;
}

void add_all(InterferenceField& field, std::span<const ChannelSlot> alloc) {
  for (std::size_t j = 0; j < alloc.size(); ++j) {
    if (alloc[j].allocated()) field.add_user(j, alloc[j]);
  }
}

/// Asserts the two agreement tiers for `user` against `candidates`.
void expect_agreement(const RadioEnvironment& env,
                      const InterferenceField& field, BatchEvaluator& batch,
                      std::span<const ChannelSlot> alloc, std::size_t user,
                      std::span<const std::size_t> candidates) {
  const std::size_t channels = env.channels_per_server;
  const auto benefits = batch.benefits(user, candidates);
  ASSERT_EQ(benefits.size(), candidates.size() * channels);
  for (std::size_t a = 0; a < candidates.size(); ++a) {
    for (std::size_t x = 0; x < channels; ++x) {
      const ChannelSlot slot{candidates[a], x};
      const double batched = benefits[a * channels + x];
      const double scalar = field.benefit(user, slot);
      // Tier 1: bit-identical to the scalar field kernel.
      ASSERT_EQ(batched, scalar)
          << "benefit user=" << user << " server=" << slot.server
          << " channel=" << x;
      // Tier 2: 1e-12 relative vs the from-scratch reference oracle.
      const double reference = benefit_reference(env, alloc, user, slot);
      ASSERT_NEAR(batched / reference, 1.0, 1e-12)
          << "benefit_reference user=" << user << " server=" << slot.server
          << " channel=" << x;
    }
  }
  const auto sinrs = batch.sinrs(user, candidates);
  ASSERT_EQ(sinrs.size(), candidates.size() * channels);
  for (std::size_t a = 0; a < candidates.size(); ++a) {
    for (std::size_t x = 0; x < channels; ++x) {
      const ChannelSlot slot{candidates[a], x};
      const double batched = sinrs[a * channels + x];
      ASSERT_EQ(batched, field.sinr(user, slot))
          << "sinr user=" << user << " server=" << slot.server
          << " channel=" << x;
      const double reference = sinr_reference(env, alloc, user, slot);
      ASSERT_NEAR(batched / reference, 1.0, 1e-12)
          << "sinr_reference user=" << user << " server=" << slot.server
          << " channel=" << x;
    }
  }
}

TEST(BatchEvaluator, MatchesScalarAndReferenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    const std::size_t servers = 2 + rng.index(6);
    const std::size_t users = 4 + rng.index(24);
    const std::size_t channels = 1 + rng.index(3);
    // Low seeds sweep dense coverage, high seeds sparse — sparse runs are
    // dominated by single-coverage users, i.e. the inline fast path.
    const double coverage = seed <= 12 ? 0.8 : 0.25;
    const RadioEnvironment env = make_env(servers, users, channels, rng,
                                          coverage);
    const std::vector<ChannelSlot> alloc = random_alloc(env, rng, 0.8);
    InterferenceField field(env);
    add_all(field, alloc);
    BatchEvaluator batch(field);
    for (std::size_t j = 0; j < users; ++j) {
      expect_agreement(env, field, batch, alloc, j,
                       env.covering_servers[j]);
    }
  }
}

TEST(BatchEvaluator, CandidateSubsetStillSeesFullCoverageInterference) {
  // DUP-G restricts the candidate servers to a subset of the coverage set,
  // but every covering server still interferes. Evaluating a strict subset
  // must therefore give the exact same per-slot values as the scalar path
  // (which always walks the full coverage set).
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(1000 + seed);
    const RadioEnvironment env = make_env(6, 20, 2, rng, 0.9);
    const std::vector<ChannelSlot> alloc = random_alloc(env, rng, 0.9);
    InterferenceField field(env);
    add_all(field, alloc);
    BatchEvaluator batch(field);
    std::size_t subset_users = 0;
    for (std::size_t j = 0; j < env.user_count; ++j) {
      const auto& cov = env.covering_servers[j];
      if (cov.size() < 2) continue;
      // Every other covering server, starting at a seed-dependent offset —
      // ascending, strict subset.
      std::vector<std::size_t> subset;
      for (std::size_t c = rng.index(2); c < cov.size(); c += 2) {
        subset.push_back(cov[c]);
      }
      if (subset.empty() || subset.size() == cov.size()) continue;
      ++subset_users;
      expect_agreement(env, field, batch, alloc, j, subset);
    }
    ASSERT_GT(subset_users, 0u) << "seed " << seed << " exercised no subsets";
  }
}

TEST(BatchEvaluator, EmptiedChannelsMatchFreshField) {
  // Add/remove churn drives users_on back to 0 on some slots; the residue
  // handling (clamped subtraction, exact zeroing on empty) must keep the
  // batched kernel bit-identical to the scalar one on those slots too.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(2000 + seed);
    const RadioEnvironment env = make_env(4, 16, 2, rng, 0.7);
    std::vector<ChannelSlot> alloc = random_alloc(env, rng, 1.0);
    InterferenceField field(env);
    add_all(field, alloc);
    // Remove roughly half the users, emptying channels along the way.
    for (std::size_t j = 0; j < env.user_count; ++j) {
      if (!rng.bernoulli(0.5)) continue;
      field.remove_user(j);
      alloc[j] = kUnallocated;
    }
    BatchEvaluator batch(field);
    for (std::size_t j = 0; j < env.user_count; ++j) {
      expect_agreement(env, field, batch, alloc, j, env.covering_servers[j]);
    }
  }
}

TEST(BatchEvaluator, SingleCoverageFastPathIsExact) {
  // Force |V_j| == 1 for every user: the dispatcher takes the inline
  // zero-cross path, which must still be bit-identical to the scalar calls.
  Rng rng(42);
  RadioEnvironment env = make_env(5, 30, 3, rng, 0.0);
  for (const auto& cov : env.covering_servers) ASSERT_EQ(cov.size(), 1u);
  const std::vector<ChannelSlot> alloc = random_alloc(env, rng, 0.7);
  InterferenceField field(env);
  add_all(field, alloc);
  BatchEvaluator batch(field);
  for (std::size_t j = 0; j < env.user_count; ++j) {
    expect_agreement(env, field, batch, alloc, j, env.covering_servers[j]);
  }
}

}  // namespace
