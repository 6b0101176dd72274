// Radio layer: unit conversions, path loss, and the incremental
// interference field checked against the from-scratch reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "oracles/radio_reference.hpp"
#include "radio/interference.hpp"
#include "radio/pathloss.hpp"
#include "radio/units.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace {

using namespace idde::radio;
using idde::oracle::benefit_reference;
using idde::oracle::sinr_reference;
using idde::util::Rng;

TEST(Units, DbmWattsRoundTrip) {
  EXPECT_NEAR(dbm_to_watts(30.0), 1.0, 1e-12);
  EXPECT_NEAR(dbm_to_watts(0.0), 1e-3, 1e-15);
  EXPECT_NEAR(watts_to_dbm(1.0), 30.0, 1e-9);
  for (const double dbm : {-174.0, -90.0, -30.0, 0.0, 20.0}) {
    EXPECT_NEAR(watts_to_dbm(dbm_to_watts(dbm)), dbm, 1e-9);
  }
}

TEST(Units, PaperNoiseFloor) {
  // -174 dBm ~ 3.98e-21 W.
  EXPECT_NEAR(default_noise_watts(), 3.98e-21, 0.01e-21);
}

TEST(PathLoss, PowerLawDecay) {
  const PathLossModel model(1.0, 3.0);
  EXPECT_DOUBLE_EQ(model.gain(10.0), 1e-3);
  EXPECT_DOUBLE_EQ(model.gain(100.0), 1e-6);
  // Doubling distance with loss=3 cuts gain by 8.
  EXPECT_NEAR(model.gain(20.0) / model.gain(10.0), 1.0 / 8.0, 1e-12);
}

TEST(PathLoss, EtaScalesLinearly) {
  const PathLossModel a(1.0, 3.0);
  const PathLossModel b(2.5, 3.0);
  EXPECT_NEAR(b.gain(50.0) / a.gain(50.0), 2.5, 1e-12);
}

TEST(PathLoss, MinDistanceClampsGain) {
  const PathLossModel model(1.0, 3.0, 5.0);
  EXPECT_DOUBLE_EQ(model.gain(0.0), model.gain(5.0));
  EXPECT_DOUBLE_EQ(model.gain(2.0), model.gain(5.0));
  EXPECT_LT(model.gain(10.0), model.gain(5.0));
}

/// Builds a random radio environment with full coverage structure.
RadioEnvironment make_env(std::size_t servers, std::size_t users,
                          std::size_t channels, Rng& rng,
                          double coverage_prob = 0.7) {
  RadioEnvironment env;
  env.server_count = servers;
  env.user_count = users;
  env.channels_per_server = channels;
  env.noise_watts = default_noise_watts();
  env.power.resize(users);
  env.bandwidth.assign(servers * channels, 200.0);
  for (std::size_t j = 0; j < users; ++j) {
    env.power[j] = rng.uniform(1.0, 5.0);
  }
  std::vector<double> dense(servers * users);  // row-major N x M
  for (std::size_t i = 0; i < servers; ++i) {
    for (std::size_t j = 0; j < users; ++j) {
      // Distances 50..250 m under eta=1, loss=3.
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

/// Random allocation within coverage.
std::vector<ChannelSlot> random_alloc(const RadioEnvironment& env, Rng& rng,
                                      double allocate_prob = 0.9) {
  std::vector<ChannelSlot> alloc(env.user_count, kUnallocated);
  for (std::size_t j = 0; j < env.user_count; ++j) {
    if (!rng.bernoulli(allocate_prob)) continue;
    const auto& cov = env.covering_servers[j];
    alloc[j] = ChannelSlot{cov[rng.index(cov.size())],
                           rng.index(env.channels_per_server)};
  }
  return alloc;
}

// check() is the model-layer gate for file- and generator-sourced
// environments: inconsistencies must surface as util::ValidationError (the
// structured CLI error contract), not as an abort.
TEST(RadioEnvironment, CheckThrowsValidationErrorOnBadInput) {
  Rng rng(7);
  const RadioEnvironment good = make_env(3, 4, 2, rng, 1.0);
  EXPECT_NO_THROW(good.check());

  RadioEnvironment bad = good;
  bad.gain.pop_back();  // shape mismatch
  EXPECT_THROW(bad.check(), idde::util::ValidationError);

  bad = good;
  bad.power[1] = 0.0;  // non-positive transmit power
  EXPECT_THROW(bad.check(), idde::util::ValidationError);

  bad = good;
  bad.noise_watts = -1.0;
  EXPECT_THROW(bad.check(), idde::util::ValidationError);

  bad = good;
  std::swap(bad.covering_servers[0].front(), bad.covering_servers[0].back());
  if (bad.covering_servers[0].size() > 1) {  // unsorted coverage set
    EXPECT_THROW(bad.check(), idde::util::ValidationError);
  }

  bad = good;
  bad.covering_servers[2].push_back(99);  // server index out of range
  EXPECT_THROW(bad.check(), idde::util::ValidationError);

  bad = good;
  bad.neighbours[1].erase(bad.neighbours[1].begin() + 1);  // omits itself
  EXPECT_THROW(bad.check(), idde::util::ValidationError);

  bad = good;
  std::swap(bad.neighbours[0][0], bad.neighbours[0][1]);  // unsorted
  EXPECT_THROW(bad.check(), idde::util::ValidationError);

  bad = good;
  bad.reach_server[0] = 2;  // reach row no longer the union of nbr lists
  EXPECT_THROW(bad.check(), idde::util::ValidationError);
}

// The closure invariant: servers covering a common user must neighbour
// each other, or Eq. 2/12 would read a gain the store does not hold.
TEST(RadioEnvironment, CheckRejectsClosureViolation) {
  Rng rng(8);
  RadioEnvironment env = make_env(3, 4, 2, rng, 1.0);  // all cover all
  EXPECT_NO_THROW(env.check());
  // Server 1 stays in reach(t) through nbr(1), so the reach rows still
  // match; only the closure is broken.
  env.neighbours[0].erase(env.neighbours[0].begin() + 1);
  try {
    env.check();
    ADD_FAILURE() << "closure violation accepted";
  } catch (const idde::util::ValidationError& error) {
    EXPECT_NE(std::string(error.what()).find("neighbour each other"),
              std::string::npos)
        << error.what();
  }
}

TEST(RadioEnvironment, GainOutsideReachIsNotReadAsZero) {
  Rng rng(9);
  RadioEnvironment env = make_env(3, 2, 2, rng, 1.0);
  // Shrink every list to the server itself and cover each user by one.
  for (std::size_t o = 0; o < 3; ++o) env.neighbours[o] = {o};
  env.covering_servers = {{0}, {2}};
  env.index_reach();
  env.check();
  EXPECT_EQ(env.reach(0).size(), 1u);
  EXPECT_DEATH((void)env.gain_at(1, 0), "outside the user's reach");
}

TEST(InterferenceField, AssertsOnOutOfCoverageSlot) {
  Rng rng(10);
  RadioEnvironment env = make_env(3, 2, 2, rng, 1.0);
  env.covering_servers = {{0, 1}, {2}};
  env.index_reach();  // nbr lists stay full, so every gain is stored
  std::fill(env.gain.begin(), env.gain.end(), 1e-6);
  env.check();
  InterferenceField field(env);
  const ChannelSlot outside{2, 0};  // server 2 does not cover user 0
  EXPECT_DEATH(field.add_user(0, outside), "does not cover the user");
  EXPECT_DEATH((void)field.sinr(0, outside), "does not cover the user");
  EXPECT_DEATH((void)field.benefit(0, outside), "does not cover the user");
  field.add_user(0, ChannelSlot{1, 0});
  EXPECT_GT(field.benefit(0, ChannelSlot{1, 0}), 0.0);
}

TEST(InterferenceField, SingleUserSeesOnlyNoise) {
  Rng rng(1);
  const RadioEnvironment env = make_env(3, 1, 2, rng, 1.0);
  InterferenceField field(env);
  const ChannelSlot slot{0, 0};
  const double expected =
      env.gain_at(0, 0) * env.power[0] / env.noise_watts;
  EXPECT_NEAR(field.sinr(0, slot) / expected, 1.0, 1e-9);
}

TEST(InterferenceField, InCellInterferenceReducesSinr) {
  Rng rng(2);
  const RadioEnvironment env = make_env(2, 3, 2, rng, 1.0);
  InterferenceField field(env);
  const ChannelSlot slot{0, 0};
  const double alone = field.sinr(0, slot);
  field.add_user(1, slot);  // same channel
  const double with_one = field.sinr(0, slot);
  field.add_user(2, slot);
  const double with_two = field.sinr(0, slot);
  EXPECT_GT(alone, with_one);
  EXPECT_GT(with_one, with_two);
}

TEST(InterferenceField, DifferentChannelNoInCellInterference) {
  Rng rng(3);
  const RadioEnvironment env = make_env(1, 2, 2, rng, 1.0);
  InterferenceField field(env);
  const double alone = field.sinr(0, {0, 0});
  field.add_user(1, {0, 1});  // other channel, same (only) server
  EXPECT_NEAR(field.sinr(0, {0, 0}), alone, alone * 1e-12);
}

TEST(InterferenceField, CrossCellInterferenceOnlyOnSameChannelIndex) {
  Rng rng(4);
  const RadioEnvironment env = make_env(2, 2, 2, rng, 1.0);
  InterferenceField field(env);
  const double alone = field.sinr(0, {0, 0});
  field.add_user(1, {1, 0});  // other covering server, same channel index
  EXPECT_LT(field.sinr(0, {0, 0}), alone);
  field.move_user(1, {1, 1});  // other channel index: interference gone
  EXPECT_NEAR(field.sinr(0, {0, 0}), alone, alone * 1e-12);
}

TEST(InterferenceField, RemoveRestoresState) {
  Rng rng(5);
  const RadioEnvironment env = make_env(4, 6, 3, rng);
  InterferenceField field(env);
  const ChannelSlot probe{env.covering_servers[0][0], 0};
  const double before = field.sinr(0, probe);
  field.add_user(1, ChannelSlot{env.covering_servers[1][0], 0});
  field.add_user(2, ChannelSlot{env.covering_servers[2][0], 0});
  field.remove_user(1);
  field.remove_user(2);
  EXPECT_NEAR(field.sinr(0, probe), before, std::abs(before) * 1e-9);
  EXPECT_FALSE(field.slot_of(1).allocated());
}

TEST(InterferenceField, RemoveUnallocatedIsNoop) {
  Rng rng(6);
  const RadioEnvironment env = make_env(2, 2, 2, rng);
  InterferenceField field(env);
  field.remove_user(0);  // must not abort
  EXPECT_FALSE(field.slot_of(0).allocated());
}

TEST(InterferenceField, ClearResetsEverything) {
  Rng rng(7);
  const RadioEnvironment env = make_env(3, 5, 2, rng);
  InterferenceField field(env);
  const auto alloc = random_alloc(env, rng, 1.0);
  for (std::size_t j = 0; j < env.user_count; ++j) {
    field.add_user(j, alloc[j]);
  }
  field.clear();
  for (std::size_t i = 0; i < env.server_count; ++i) {
    for (std::size_t x = 0; x < env.channels_per_server; ++x) {
      EXPECT_DOUBLE_EQ(field.channel_power_watts(i, x), 0.0);
    }
  }
  for (std::size_t j = 0; j < env.user_count; ++j) {
    EXPECT_FALSE(field.slot_of(j).allocated());
  }
}

TEST(InterferenceField, ChannelPowerTracksMembers) {
  Rng rng(8);
  const RadioEnvironment env = make_env(2, 4, 2, rng, 1.0);
  InterferenceField field(env);
  field.add_user(0, {0, 0});
  field.add_user(1, {0, 0});
  field.add_user(2, {0, 1});
  EXPECT_NEAR(field.channel_power_watts(0, 0), env.power[0] + env.power[1], 1e-12);
  EXPECT_NEAR(field.channel_power_watts(0, 1), env.power[2], 1e-12);
  EXPECT_DOUBLE_EQ(field.channel_power_watts(1, 0), 0.0);
}

TEST(InterferenceField, HypotheticalEvaluationExcludesSelf) {
  Rng rng(9);
  const RadioEnvironment env = make_env(2, 2, 2, rng, 1.0);
  InterferenceField field(env);
  // User 0 allocated at (0,0); probing (1,0) must not count user 0's own
  // transmission as cross-cell interference against itself.
  field.add_user(0, {0, 0});
  const double probe_with_self_present = field.sinr(0, {1, 0});
  field.remove_user(0);
  const double probe_clean = field.sinr(0, {1, 0});
  EXPECT_NEAR(probe_with_self_present, probe_clean,
              std::abs(probe_clean) * 1e-9);
}

TEST(InterferenceField, RateIsShannon) {
  Rng rng(10);
  const RadioEnvironment env = make_env(2, 3, 2, rng, 1.0);
  InterferenceField field(env);
  field.add_user(1, {0, 0});
  const ChannelSlot slot{0, 0};
  const double r = field.sinr(0, slot);
  EXPECT_NEAR(field.rate_mbps(0, slot), 200.0 * std::log2(1.0 + r), 1e-9);
}

TEST(InterferenceField, BenefitMatchesEq12Shape) {
  Rng rng(11);
  const RadioEnvironment env = make_env(1, 2, 1, rng, 1.0);
  InterferenceField field(env);
  // Alone: beta = g p / (g p) = 1.
  EXPECT_NEAR(field.benefit(0, {0, 0}), 1.0, 1e-12);
  field.add_user(1, {0, 0});
  // With a peer on the channel: beta = p0 / (p0 + p1) (gains cancel).
  EXPECT_NEAR(field.benefit(0, {0, 0}),
              env.power[0] / (env.power[0] + env.power[1]), 1e-12);
}

TEST(InterferenceField, BenefitBoundedByOne) {
  Rng rng(12);
  const RadioEnvironment env = make_env(4, 10, 3, rng);
  InterferenceField field(env);
  const auto alloc = random_alloc(env, rng);
  for (std::size_t j = 0; j < env.user_count; ++j) {
    if (alloc[j].allocated()) field.add_user(j, alloc[j]);
  }
  for (std::size_t j = 0; j < env.user_count; ++j) {
    for (const std::size_t i : env.covering_servers[j]) {
      for (std::size_t x = 0; x < env.channels_per_server; ++x) {
        const double b = field.benefit(j, {i, x});
        EXPECT_GT(b, 0.0);
        EXPECT_LE(b, 1.0 + 1e-12);
      }
    }
  }
}

// Property: the incremental field agrees with the from-scratch reference
// for every user and candidate slot, across random allocation histories
// (adds, removes, moves).
class FieldVsReferenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FieldVsReferenceTest, AgreesAfterRandomHistory) {
  Rng rng(GetParam());
  const std::size_t servers = 2 + rng.index(5);
  const std::size_t users = 3 + rng.index(12);
  const std::size_t channels = 1 + rng.index(3);
  const RadioEnvironment env = make_env(servers, users, channels, rng);
  InterferenceField field(env);
  std::vector<ChannelSlot> shadow(users, kUnallocated);

  // Random mutation history.
  for (int step = 0; step < 200; ++step) {
    const std::size_t j = rng.index(users);
    const int op = static_cast<int>(rng.index(3));
    if (op == 0 && !shadow[j].allocated()) {
      const auto& cov = env.covering_servers[j];
      const ChannelSlot slot{cov[rng.index(cov.size())],
                             rng.index(channels)};
      field.add_user(j, slot);
      shadow[j] = slot;
    } else if (op == 1 && shadow[j].allocated()) {
      field.remove_user(j);
      shadow[j] = kUnallocated;
    } else {
      const auto& cov = env.covering_servers[j];
      const ChannelSlot slot{cov[rng.index(cov.size())],
                             rng.index(channels)};
      field.move_user(j, slot);
      shadow[j] = slot;
    }
  }

  // Full agreement check.
  for (std::size_t j = 0; j < users; ++j) {
    for (const std::size_t i : env.covering_servers[j]) {
      for (std::size_t x = 0; x < channels; ++x) {
        const ChannelSlot slot{i, x};
        const double fast = field.sinr(j, slot);
        const double slow = sinr_reference(env, shadow, j, slot);
        EXPECT_NEAR(fast / slow, 1.0, 1e-6)
            << "user " << j << " slot (" << i << "," << x << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FieldVsReferenceTest,
                         ::testing::Range<std::uint64_t>(100, 112));

TEST(ChangeTracking, VersionsBumpOnlyOnPerturbedSlots) {
  Rng rng(7);
  const RadioEnvironment env = make_env(3, 4, 2, rng, 1.0);
  InterferenceField field(env);
  EXPECT_EQ(field.version(), 0u);
  EXPECT_EQ(field.last_move().user, ChannelSlot::kNone);

  const ChannelSlot a{0, 0};
  const ChannelSlot b{2, 1};
  field.add_user(0, a);
  EXPECT_EQ(field.version(), 1u);
  EXPECT_EQ(field.slot_version(a), 1u);
  EXPECT_EQ(field.slot_version(b), 0u);
  EXPECT_EQ(field.last_move().user, 0u);
  EXPECT_FALSE(field.last_move().from.allocated());
  EXPECT_EQ(field.last_move().to, a);

  // A move bumps exactly the vacated and entered slots and reports both.
  field.move_user(0, b);
  EXPECT_EQ(field.version(), 3u);  // remove + add
  EXPECT_EQ(field.slot_version(a), 2u);
  EXPECT_EQ(field.slot_version(b), 1u);
  EXPECT_EQ(field.slot_version(ChannelSlot{1, 0}), 0u);
  EXPECT_EQ(field.last_move().user, 0u);
  EXPECT_EQ(field.last_move().from, a);
  EXPECT_EQ(field.last_move().to, b);
  EXPECT_EQ(field.last_move().version, field.version());

  field.remove_user(0);
  EXPECT_EQ(field.slot_version(b), 2u);
  EXPECT_EQ(field.last_move().from, b);
  EXPECT_FALSE(field.last_move().to.allocated());

  // clear() invalidates every slot.
  field.add_user(1, a);
  const std::uint64_t before = field.version();
  field.clear();
  EXPECT_GT(field.version(), before);
  EXPECT_EQ(field.slot_version(a), 4u);
  EXPECT_EQ(field.slot_version(b), 3u);
  EXPECT_EQ(field.last_move().user, ChannelSlot::kNone);
}

TEST(ChangeTracking, EqualSlotVersionsImplyEqualBenefits) {
  // The contract the game's dirty set relies on: after a move, any user
  // whose coverage misses both perturbed servers sees identical benefits
  // at every one of its candidates.
  Rng rng(8);
  const RadioEnvironment env = make_env(6, 12, 3, rng, 0.4);
  InterferenceField field(env);
  std::vector<ChannelSlot> alloc = random_alloc(env, rng);
  for (std::size_t j = 0; j < env.user_count; ++j) {
    if (alloc[j].allocated()) field.add_user(j, alloc[j]);
  }
  std::vector<std::vector<double>> before(env.user_count);
  for (std::size_t j = 0; j < env.user_count; ++j) {
    for (const std::size_t i : env.covering_servers[j]) {
      for (std::size_t x = 0; x < env.channels_per_server; ++x) {
        before[j].push_back(field.benefit(j, ChannelSlot{i, x}));
      }
    }
  }

  // Move user 0 somewhere else within coverage.
  const auto& cov0 = env.covering_servers[0];
  const ChannelSlot target{cov0[cov0.size() - 1],
                           env.channels_per_server - 1};
  const ChannelSlot old0 = alloc[0];
  field.move_user(0, target);
  const MoveDelta& delta = field.last_move();

  for (std::size_t j = 1; j < env.user_count; ++j) {
    const auto& cov = env.covering_servers[j];
    const bool touches =
        (delta.from.allocated() &&
         std::binary_search(cov.begin(), cov.end(), delta.from.server)) ||
        (delta.to.allocated() &&
         std::binary_search(cov.begin(), cov.end(), delta.to.server));
    if (touches) continue;  // dirty by the game's criterion
    std::size_t idx = 0;
    for (const std::size_t i : cov) {
      for (std::size_t x = 0; x < env.channels_per_server; ++x) {
        EXPECT_EQ(field.benefit(j, ChannelSlot{i, x}), before[j][idx])
            << "clean user " << j << " drifted after move " << old0.server
            << "->" << target.server;
        ++idx;
      }
    }
  }
}

TEST(BenefitReference, MatchesIncrementalFieldAfterMoveChurn) {
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    Rng rng(seed);
    const RadioEnvironment env = make_env(5, 10, 3, rng, 0.6);
    InterferenceField field(env);
    std::vector<ChannelSlot> shadow(env.user_count, kUnallocated);
    for (int step = 0; step < 200; ++step) {
      const std::size_t j = rng.index(env.user_count);
      const auto& cov = env.covering_servers[j];
      const ChannelSlot slot{cov[rng.index(cov.size())],
                             rng.index(env.channels_per_server)};
      field.move_user(j, slot);
      shadow[j] = slot;
    }
    for (std::size_t j = 0; j < env.user_count; ++j) {
      for (const std::size_t i : env.covering_servers[j]) {
        for (std::size_t x = 0; x < env.channels_per_server; ++x) {
          const ChannelSlot slot{i, x};
          EXPECT_NEAR(field.benefit(j, slot),
                      benefit_reference(env, shadow, j, slot), 1e-12)
              << "seed " << seed << " user " << j;
        }
      }
    }
  }
}

}  // namespace
