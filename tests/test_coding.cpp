// Contract tests of the (n, k) code shape of core::DeliveryProfile and of
// the coded plane built on it. Replication is the (N, 1) shape of the same
// profile, evaluator, planner, resilience walk and DES replay. Eq. 8 at
// every k is checked against the brute-force k-of-n oracle
// (tests/oracles/eq8_reference.hpp): DeliveryEvaluator's cached latencies
// and gains and core::Eq8Resolver bit for bit, and the planner against the
// lazy greedy driven by an oracle-priced evaluator. k > 1 behaviour is also
// checked against structural invariants (cloud cap, n-cap, ledger
// exactness, rescan convergence).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/delivery.hpp"
#include "core/greedy_delivery.hpp"
#include "core/idde_g.hpp"
#include "core/lazy_greedy.hpp"
#include "core/resolver.hpp"
#include "core/strategy.hpp"
#include "core/strategy_io.hpp"
#include "core/validation.hpp"
#include "des/flow_sim.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "model/instance_builder.hpp"
#include "oracles/eq8_reference.hpp"
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

core::Strategy solve(const model::ProblemInstance& instance,
                     std::uint64_t seed) {
  util::Rng rng(seed);
  return core::IddeG().solve(instance, rng);
}

/// The k = 1 shapes the planner is checked at against the oracle-priced
/// greedy: replication (N, 1) and a tight (4, 1) that caps every item at
/// four copies.
std::vector<core::FragmentConfig> k1_shapes(
    const model::ProblemInstance& instance) {
  return {core::replication_shape(instance.server_count()), {4, 1}};
}

/// Request ids as DeliveryEvaluator numbers them: user-major, in
/// `requests().items_of(j)` order.
struct RequestIndex {
  std::vector<std::size_t> user;
  std::vector<std::size_t> item;
  std::vector<std::vector<std::size_t>> of_item;  ///< ascending ids

  explicit RequestIndex(const model::ProblemInstance& instance)
      : of_item(instance.data_count()) {
    for (std::size_t j = 0; j < instance.user_count(); ++j) {
      for (const std::size_t k : instance.requests().items_of(j)) {
        of_item[k].push_back(user.size());
        user.push_back(j);
        item.push_back(k);
      }
    }
  }
};

/// The hosts a request served at `serving` fetches from: all of them under
/// collaborative delivery, at most its own server under local-or-cloud.
std::span<const std::size_t> visible_hosts(std::span<const std::size_t> hosts,
                                           const std::size_t& serving,
                                           bool collaborative) {
  if (collaborative) return hosts;
  const bool local =
      std::find(hosts.begin(), hosts.end(), serving) != hosts.end();
  return {&serving, local ? 1U : 0U};
}

/// Eq. 8 of one request from the brute-force oracle, with the evaluator's
/// delivery semantics: a user without a channel is served by the cloud.
double oracle_seconds(const model::ProblemInstance& instance,
                      std::span<const std::size_t> hosts, std::size_t serving,
                      std::size_t item, core::FragmentConfig shape,
                      bool collaborative) {
  const double item_mb = instance.data(item).size_mb;
  if (serving == core::ChannelSlot::kNone) {
    return instance.latency().cloud_transfer_seconds(item_mb);
  }
  return oracle::k_of_n_seconds(
      instance.latency(), visible_hosts(hosts, serving, collaborative),
      serving, item_mb, core::fragment_size_mb(item_mb, shape.k), shape.k);
}

/// An incremental evaluator priced by the oracle alone: every request of
/// an item is re-priced from scratch over its committed hosts plus the
/// candidate. It keeps DeliveryEvaluator's request order and gain
/// arithmetic, so it drives core::run_lazy_greedy through the same moves
/// only if the production evaluator prices every request exactly.
class OracleEvaluator {
 public:
  OracleEvaluator(const model::ProblemInstance& instance,
                  const core::AllocationProfile& allocation,
                  core::FragmentConfig shape, bool collaborative = true)
      : instance_(&instance),
        shape_(shape),
        collaborative_(collaborative),
        requests_(instance),
        hosts_(instance.data_count()) {
    // The empty sigma: every request at the whole-item cloud latency,
    // summed in id order.
    for (std::size_t id = 0; id < requests_.user.size(); ++id) {
      const core::ChannelSlot slot = allocation[requests_.user[id]];
      serving_.push_back(slot.allocated() ? slot.server
                                          : core::ChannelSlot::kNone);
      latency_.push_back(instance.latency().cloud_transfer_seconds(
          instance.data(requests_.item[id]).size_mb));
      total_ += latency_.back();
    }
  }

  [[nodiscard]] bool rescans_after_drain() const { return shape_.k > 1; }

  [[nodiscard]] double gain_seconds(std::size_t server,
                                    std::size_t item) const {
    double gain = 0.0;
    const std::vector<double> candidate = priced_with(server, item);
    const std::vector<std::size_t>& ids = requests_.of_item[item];
    for (std::size_t r = 0; r < ids.size(); ++r) {
      if (candidate[r] < latency_[ids[r]]) {
        gain += latency_[ids[r]] - candidate[r];
      }
    }
    return gain;
  }

  double commit(std::size_t server, std::size_t item) {
    double gain = 0.0;
    const std::vector<double> candidate = priced_with(server, item);
    const std::vector<std::size_t>& ids = requests_.of_item[item];
    for (std::size_t r = 0; r < ids.size(); ++r) {
      if (candidate[r] < latency_[ids[r]]) {
        gain += latency_[ids[r]] - candidate[r];
        latency_[ids[r]] = candidate[r];
      }
    }
    hosts_[item].push_back(server);
    total_ -= gain;
    return gain;
  }

  [[nodiscard]] double total_latency_seconds() const { return total_; }

 private:
  /// The oracle latency of each of the item's requests with `server`
  /// added to its committed hosts.
  [[nodiscard]] std::vector<double> priced_with(std::size_t server,
                                                std::size_t item) const {
    std::vector<std::size_t> hosts = hosts_[item];
    hosts.push_back(server);
    std::vector<double> out;
    for (const std::size_t id : requests_.of_item[item]) {
      out.push_back(oracle_seconds(*instance_, hosts, serving_[id], item,
                                   shape_, collaborative_));
    }
    return out;
  }

  const model::ProblemInstance* instance_;
  core::FragmentConfig shape_;
  bool collaborative_;
  RequestIndex requests_;
  std::vector<std::size_t> serving_;  ///< per request
  std::vector<double> latency_;       ///< per request, current Eq. 8
  std::vector<std::vector<std::size_t>> hosts_;  ///< committed, per item
  double total_ = 0.0;
};

/// Phase 2 through the oracle-priced evaluator: the independent path the
/// planner's plan() is checked against.
core::GreedyDeliveryResult oracle_plan(
    const model::ProblemInstance& instance,
    const core::AllocationProfile& allocation, core::FragmentConfig shape) {
  core::GreedyDeliveryResult result{core::DeliveryProfile(instance, shape)};
  OracleEvaluator evaluator(instance, allocation, shape);
  std::vector<core::GreedyCandidate> heap;
  const core::GreedyRun run = core::run_lazy_greedy(
      nullptr, result.delivery, evaluator, heap, core::EveryPlacementUsable{},
      std::numeric_limits<std::size_t>::max());
  result.placements = run.placements;
  result.gain_evaluations = run.gain_evaluations;
  result.rescan_rounds = run.rescan_rounds;
  return result;
}

/// replan() through the oracle-priced evaluator: the same survivor and
/// outage-masking rules as GreedyDeliveryPlanner::replan.
core::RepairResult oracle_replan(const model::ProblemInstance& instance,
                                 const core::AllocationProfile& allocation,
                                 const core::DeliveryProfile& sigma,
                                 std::span<const std::uint8_t> up,
                                 std::size_t max_placements) {
  const core::ReplicaLost none;
  const core::SurvivingPlacements usable{up, none};
  core::AllocationProfile effective;
  usable.mask(allocation, effective);
  core::RepairResult result{core::DeliveryProfile(instance, sigma.shape())};
  OracleEvaluator evaluator(instance, effective, sigma.shape());
  std::vector<core::GreedyCandidate> heap;
  const core::GreedyRun run = core::run_lazy_greedy(
      &sigma, result.delivery, evaluator, heap, usable, max_placements);
  result.lost_placements = run.lost_placements;
  result.repair_placements = run.placements;
  result.recovered_gain_seconds = run.recovered_gain_seconds;
  return result;
}

/// Total latency of a complete sigma, committed in item order through the
/// oracle-priced evaluator (core::total_latency_seconds' arithmetic).
double oracle_total_seconds(const model::ProblemInstance& instance,
                            const core::AllocationProfile& allocation,
                            const core::DeliveryProfile& delivery) {
  OracleEvaluator evaluator(instance, allocation, delivery.shape());
  for (std::size_t k = 0; k < instance.data_count(); ++k) {
    for (const std::size_t i : delivery.hosts(k)) evaluator.commit(i, k);
  }
  return evaluator.total_latency_seconds();
}

void expect_same_profile(const core::DeliveryProfile& coded,
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
  EXPECT_EQ(core::fragment_size_kb(10.0, 3), 3414);
  EXPECT_EQ(core::fragment_size_kb(10.0, 1), core::mb_to_kb(10.0));
  // k fragments always cover the item: k * frag_kb >= item_kb.
  util::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const double mb = 0.1 + 50.0 * rng.uniform();
    const std::size_t k = 1 + rng.index(6);
    EXPECT_GE(static_cast<std::int64_t>(k) * core::fragment_size_kb(mb, k),
              core::mb_to_kb(mb));
  }
}

TEST(Fragment, SizeMbIsExactAtKEqualsOne) {
  EXPECT_EQ(core::fragment_size_mb(7.25, 1), 7.25);
  EXPECT_EQ(core::fragment_size_mb(9.0, 3), 3.0);
}

TEST(Fragment, ConfigValidity) {
  EXPECT_TRUE((core::FragmentConfig{1, 1}).valid());
  EXPECT_TRUE((core::FragmentConfig{4, 2}).valid());
  EXPECT_FALSE((core::FragmentConfig{2, 3}).valid());
  EXPECT_FALSE((core::FragmentConfig{0, 0}).valid());
}

TEST(CodedProfile, NCapRejectsExtraFragmentsDespiteHeadroom) {
  const auto inst = model::make_instance(sized(6, 20, 3), 3);
  core::DeliveryProfile coded(inst, {2, 2});
  std::size_t placed = 0;
  for (std::size_t i = 0; i < inst.server_count() && placed < 2; ++i) {
    if (coded.can_place(i, 0)) {
      coded.place(i, 0);
      ++placed;
    }
  }
  ASSERT_EQ(placed, 2u);
  EXPECT_EQ(coded.hosts(0).size(), 2u);
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    EXPECT_FALSE(coded.can_place(i, 0));
  }
}

TEST(CodedProfile, LedgerChargesCeilDividedFragments) {
  const auto inst = model::make_instance(sized(6, 20, 3), 5);
  const core::FragmentConfig config{inst.server_count(), 3};
  core::DeliveryProfile coded(inst, config);
  const std::int64_t before = coded.free_kb(0);
  ASSERT_TRUE(coded.can_place(0, 1));
  coded.place(0, 1);
  EXPECT_EQ(before - coded.free_kb(0),
            core::fragment_size_kb(inst.data(1).size_mb, 3));
  coded.remove(0, 1);
  EXPECT_EQ(coded.free_kb(0), before);
}

TEST(CodedProfile, RestoreIsReplayOrderIndependent) {
  const auto inst = model::make_instance(sized(8, 30, 5), 13);
  const core::FragmentConfig config{inst.server_count(), 2};
  core::DeliveryProfile live(inst, config);
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
      core::delivery_from_placements(inst, config, placements);
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

// The oracle-priced evaluator at k = 1 must drive the lazy greedy through
// the exact move sequence of the planner's DeliveryEvaluator: same final
// placements, same headroom, same scans, same total latency to the last
// bit.
TEST(CodedPlanner, K1BitIdenticalToGreedyDeliveryPlanner) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = model::make_instance(sized(10, 50, 4), seed);
    const auto strategy = solve(inst, seed);
    for (const core::FragmentConfig shape : k1_shapes(inst)) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " n " << shape.n);
      core::GreedyDeliveryPlanner replication_planner(inst);
      const auto replication =
          replication_planner.plan(strategy.allocation, shape);
      const auto coded = oracle_plan(inst, strategy.allocation, shape);
      EXPECT_EQ(coded.placements, replication.placements);
      EXPECT_EQ(coded.gain_evaluations, replication.gain_evaluations);
      expect_same_profile(coded.delivery, replication.delivery);
      EXPECT_EQ(
          oracle_total_seconds(inst, strategy.allocation, coded.delivery),
          core::total_latency_seconds(inst, strategy.allocation,
                                      replication.delivery));
    }
  }
}

TEST(CodedPlanner, K2SaturatesWithinCapsAndBeatsEmptySigma) {
  const auto inst = model::make_instance(sized(10, 50, 4), 9);
  const auto strategy = solve(inst, 9);
  core::GreedyDeliveryPlanner planner(inst);
  const core::FragmentConfig config{inst.server_count(), 2};
  const auto result = planner.plan(strategy.allocation, config);
  EXPECT_GT(result.placements, 0u);
  EXPECT_GE(result.rescan_rounds, 1u);
  for (std::size_t k = 0; k < inst.data_count(); ++k) {
    EXPECT_LE(result.delivery.hosts(k).size(), config.n);
  }
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    EXPECT_GE(result.delivery.free_kb(i), 0);
  }
  // Committing fragments can only lower latency below the all-cloud sigma.
  const core::DeliveryProfile empty(inst, config);
  EXPECT_LT(core::total_latency_seconds(inst, strategy.allocation,
                                        result.delivery),
            core::total_latency_seconds(inst, strategy.allocation, empty));
  // validate_strategy charges each host one fragment, as the ledger does.
  const core::Strategy coded(strategy.allocation, result.delivery);
  EXPECT_EQ(core::validate_strategy(inst, coded),
            std::vector<std::string>{});
}

// For any k the coded Eq. 8 never exceeds the whole-item cloud fetch:
// e = 0 (all-cloud) is always a candidate and the min is exact.
TEST(CodedEq8, NeverExceedsWholeItemCloudFetch) {
  const auto inst = model::make_instance(sized(10, 40, 5), 23);
  const auto strategy = solve(inst, 23);
  core::GreedyDeliveryPlanner planner(inst);
  core::Eq8Resolver resolver(inst);
  util::Rng rng(3);
  std::vector<std::uint8_t> up(inst.server_count(), 1);
  for (const std::size_t k_of : {2u, 3u, 4u}) {
    const core::FragmentConfig config{inst.server_count(), k_of};
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
             .fragment_mb = plan.delivery.placement_mb(item),
             .k = k_of,
             .server_up = up});
        EXPECT_LE(decision.seconds,
                  inst.latency().cloud_transfer_seconds(size));
        EXPECT_EQ(decision.edge_fragments() + decision.cloud_fragments, k_of);
      }
    }
  }
}

// The oracle's minimum over (slowest member, size) pairs is the minimum
// over every host subset: checked against literal subset enumeration on
// small random host sets, and against the replication reference at k = 1.
TEST(Eq8Oracle, EqualsExhaustiveSubsetMinimum) {
  const auto inst = model::make_instance(sized(12, 20, 4), 41);
  const net::DeliveryLatencyModel& latency = inst.latency();
  util::Rng rng(5);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::size_t> hosts;
    for (std::size_t i = 0; i < inst.server_count(); ++i) {
      if (rng.index(2) == 0) hosts.push_back(i);
    }
    const std::size_t serving = rng.index(inst.server_count());
    const std::size_t k = 1 + rng.index(5);
    const double item_mb = inst.data(rng.index(inst.data_count())).size_mb;
    const double fragment_mb = core::fragment_size_mb(item_mb, k);
    double best = latency.cloud_transfer_seconds(item_mb);
    for (std::uint32_t mask = 1; mask < (1U << hosts.size()); ++mask) {
      const auto size = static_cast<std::size_t>(std::popcount(mask));
      if (size > k) continue;
      double slowest = 0.0;
      for (std::size_t b = 0; b < hosts.size(); ++b) {
        if (((mask >> b) & 1U) == 0) continue;
        slowest = std::max(slowest, latency.edge_transfer_seconds(
                                        hosts[b], serving, fragment_mb));
      }
      const double topup =
          size == k ? 0.0
                    : latency.cloud_transfer_seconds(
                          fragment_mb * static_cast<double>(k - size));
      best = std::min(best, std::max(slowest, topup));
    }
    SCOPED_TRACE(testing::Message() << "trial " << trial << " k " << k);
    EXPECT_EQ(oracle::k_of_n_seconds(latency, hosts, serving, item_mb,
                                     fragment_mb, k),
              best);
    if (k == 1) {
      EXPECT_EQ(oracle::best_delivery_seconds(latency, hosts, serving,
                                              item_mb),
                best);
    }
  }
}

// DeliveryEvaluator and core::Eq8Resolver price every request exactly as
// the brute-force k-of-n oracle, at replication, tight k = 1, and k = 2, 3
// and 4 shapes, with and without collaboration. Each planned sigma is
// replayed host by host into a fresh evaluator. Before each commit the
// gains of the committing host and of one random other server must equal
// an oracle re-sum in the evaluator's request order; after it every
// request of the item must sit at the oracle's latency, and the resolver
// over the same hosts must return it too.
TEST(CodedEq8, EvaluatorAndResolverMatchBruteForceOracle) {
  std::size_t requests_checked = 0;
  std::size_t gains_checked = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::size_t servers = 20 + (seed * 7) % 21;
    const std::size_t items = 5 + seed % 4;
    const auto inst =
        model::make_instance(sized(servers, 5 * servers, items), seed);
    const auto strategy = solve(inst, seed);
    const RequestIndex requests(inst);
    const auto serving_of = [&](std::size_t id) {
      const core::ChannelSlot slot = strategy.allocation[requests.user[id]];
      return slot.allocated() ? slot.server : core::ChannelSlot::kNone;
    };
    core::GreedyDeliveryPlanner planner(inst);
    core::Eq8Resolver resolver(inst);
    util::Rng rng(seed);
    for (const core::FragmentConfig shape :
         {core::replication_shape(servers), core::FragmentConfig{4, 1},
          core::FragmentConfig{6, 2}, core::FragmentConfig{5, 3},
          core::FragmentConfig{servers, 4}}) {
      for (const bool collaborative : {true, false}) {
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << " shape (" << shape.n << ", "
                     << shape.k << ") collaborative " << collaborative);
        const auto plan =
            planner.plan(strategy.allocation, shape, collaborative);
        core::DeliveryEvaluator evaluator(inst, strategy.allocation, shape,
                                          collaborative);
        for (std::size_t item = 0; item < items; ++item) {
          const std::vector<std::size_t>& ids = requests.of_item[item];
          std::vector<std::size_t> hosts;  // committed so far, ascending
          const auto oracle_gain = [&](std::size_t server) {
            std::vector<std::size_t> with = hosts;
            with.push_back(server);
            double gain = 0.0;
            for (const std::size_t id : ids) {
              const double cached = oracle_seconds(
                  inst, hosts, serving_of(id), item, shape, collaborative);
              const double candidate = oracle_seconds(
                  inst, with, serving_of(id), item, shape, collaborative);
              if (candidate < cached) gain += cached - candidate;
            }
            return gain;
          };
          for (const std::size_t host : plan.delivery.hosts(item)) {
            ASSERT_EQ(evaluator.gain_seconds(host, item), oracle_gain(host));
            const std::size_t other = rng.index(servers);
            if (other != host &&
                !std::binary_search(hosts.begin(), hosts.end(), other)) {
              ASSERT_EQ(evaluator.gain_seconds(other, item),
                        oracle_gain(other));
              ++gains_checked;
            }
            ++gains_checked;
            evaluator.commit(host, item);
            hosts.insert(std::upper_bound(hosts.begin(), hosts.end(), host),
                         host);
            for (const std::size_t id : ids) {
              const std::size_t serving = serving_of(id);
              const double expected = oracle_seconds(
                  inst, hosts, serving, item, shape, collaborative);
              ASSERT_EQ(evaluator.request_latency_seconds(id), expected)
                  << "request " << id << " after host " << host;
              const double item_mb = inst.data(item).size_mb;
              EXPECT_EQ(
                  resolver
                      .estimate({.hosts = visible_hosts(hosts, serving,
                                                        collaborative),
                                 .serving = serving,
                                 .item_mb = item_mb,
                                 .fragment_mb =
                                     core::fragment_size_mb(item_mb, shape.k),
                                 .k = shape.k})
                      .seconds,
                  expected)
                  << "request " << id << " after host " << host;
              ++requests_checked;
            }
          }
        }
      }
    }
  }
  RecordProperty("requests_checked", static_cast<int>(requests_checked));
  RecordProperty("gains_checked", static_cast<int>(gains_checked));
  EXPECT_GT(requests_checked, 0U);
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

// Repair through the oracle-priced evaluator at k = 1 resumes the greedy
// exactly like the planner's replan (same survivors kept, same repairs committed,
// same recovered gain), under every placement budget.
TEST(CodedRepair, K1MatchesCoreRepairPlanner) {
  const auto inst = model::make_instance(sized(10, 50, 4), 31);
  const auto strategy = solve(inst, 31);
  core::GreedyDeliveryPlanner core_repair(inst);
  const std::size_t budgets[] = {0, 1, 3,
                                 std::numeric_limits<std::size_t>::max()};
  for (const core::FragmentConfig shape : k1_shapes(inst)) {
    // The standing sigma: the strategy's own under replication, the
    // shape's greedy plan under the tighter n.
    const core::DeliveryProfile sigma =
        shape == core::replication_shape(inst.server_count())
            ? strategy.delivery
            : core_repair.plan(strategy.allocation, shape).delivery;
    util::Rng rng(17);
    std::vector<std::uint8_t> up(inst.server_count(), 1);
    for (int round = 0; round < 20; ++round) {
      for (auto& flag : up) flag = rng.index(4) > 0 ? 1 : 0;
      for (const std::size_t budget : budgets) {
        SCOPED_TRACE(testing::Message() << "n " << shape.n << " round "
                                        << round << " budget " << budget);
        const auto expected = core_repair.replan(strategy.allocation, sigma,
                                                 up, {}, true, budget);
        const auto got =
            oracle_replan(inst, strategy.allocation, sigma, up, budget);
        EXPECT_EQ(got.lost_placements, expected.lost_placements);
        EXPECT_EQ(got.repair_placements, expected.repair_placements);
        EXPECT_EQ(got.recovered_gain_seconds,
                  expected.recovered_gain_seconds);
        expect_same_profile(got.delivery, expected.delivery);
      }
    }
  }
}

/// Asserts two coded profiles hold the same fragments and headroom.
void expect_same_coded_profile(const core::DeliveryProfile& a,
                               const core::DeliveryProfile& b) {
  ASSERT_EQ(a.placement_count(), b.placement_count());
  for (std::size_t k = 0; k < a.data_count(); ++k) {
    const auto ah = a.hosts(k);
    const auto bh = b.hosts(k);
    ASSERT_TRUE(std::equal(ah.begin(), ah.end(), bh.begin(), bh.end()))
        << "item " << k;
  }
  for (std::size_t i = 0; i < a.server_count(); ++i) {
    EXPECT_EQ(a.free_kb(i), b.free_kb(i)) << "server " << i;
  }
}

// plan() is replan() from the empty coded sigma with every server up, at
// k = 1 and at k = 2 (where the rescans run).
TEST(CodedPlanner, PlanEqualsReplanFromEmptySigma) {
  const auto inst = model::make_instance(sized(10, 50, 4), 33);
  const auto strategy = solve(inst, 33);
  const std::vector<std::uint8_t> all_up(inst.server_count(), 1);
  for (const std::size_t k_of : {1u, 2u}) {
    SCOPED_TRACE(testing::Message() << "k = " << k_of);
    const core::FragmentConfig config{inst.server_count(), k_of};
    const auto planned =
        core::GreedyDeliveryPlanner(inst).plan(strategy.allocation, config);
    const auto replanned = core::GreedyDeliveryPlanner(inst).replan(
        strategy.allocation, core::DeliveryProfile(inst, config), all_up);
    EXPECT_EQ(replanned.lost_placements, 0u);
    EXPECT_EQ(replanned.repair_placements, planned.placements);
    expect_same_coded_profile(replanned.delivery, planned.delivery);
  }
}

// The first n fragments of a budgeted coded repair are the first n of the
// unbudgeted one, rescans included: the budgeted sigma is a subset and the
// budget caps the repair count exactly. The standing sigma is the k = 2
// plan without the fragments of items 0 and 1, with server 0 down.
TEST(CodedRepair, BudgetedReplanIsAPrefixOfUnbudgeted) {
  const auto inst = model::make_instance(sized(10, 50, 4), 13);
  const auto strategy = solve(inst, 13);
  const core::FragmentConfig config{inst.server_count(), 2};
  core::GreedyDeliveryPlanner planner(inst);
  const auto planned = planner.plan(strategy.allocation, config).delivery;
  core::DeliveryProfile sigma(inst, config);
  for (std::size_t k = 2; k < inst.data_count(); ++k) {
    for (const std::size_t i : planned.hosts(k)) sigma.place(i, k);
  }
  std::vector<std::uint8_t> up(inst.server_count(), 1);
  up[0] = 0;
  const auto full = planner.replan(strategy.allocation, sigma, up);
  ASSERT_GT(full.repair_placements, 3u);
  const std::size_t total = full.repair_placements;
  for (const std::size_t budget :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        total - 1, total, total + 1}) {
    SCOPED_TRACE(testing::Message() << "budget " << budget);
    const auto cut =
        planner.replan(strategy.allocation, sigma, up, {}, true, budget);
    EXPECT_EQ(cut.repair_placements, std::min(budget, total));
    EXPECT_EQ(cut.lost_placements, full.lost_placements);
    for (std::size_t k = 0; k < inst.data_count(); ++k) {
      for (const std::size_t i : cut.delivery.hosts(k)) {
        EXPECT_TRUE(full.delivery.placed(i, k)) << i << ", " << k;
      }
    }
  }
}

// An inert plan short-circuits the resilience walk of a k = 2 strategy to
// its fault-free L_avg, which the evaluator computes.
TEST(CodedResilience, InertPlanShortCircuitsToFaultFree) {
  const auto inst = model::make_instance(sized(8, 40, 4), 50);
  const auto strategy = solve(inst, 50);
  core::Strategy coded(
      strategy.allocation,
      core::GreedyDeliveryPlanner(inst)
          .plan(strategy.allocation, {inst.server_count(), 2})
          .delivery);
  const fault::FaultPlan inert;
  const auto report = fault::evaluate_resilience(inst, coded, inert);
  EXPECT_EQ(report.degraded_latency_ms, report.fault_free_latency_ms);
  EXPECT_EQ(report.availability, 1.0);
  EXPECT_EQ(report.epochs, 1u);
}

// k > 1: the coded replay stays structurally sound under faults — every
// request completes finitely, the QoS invariant holds, and repeated runs
// are bit-identical (determinism of the multi-leg engine).
TEST(CodedDes, K2ReplayIsSoundAndDeterministic) {
  const auto inst = model::make_instance(sized(10, 50, 4), 70);
  const auto strategy = solve(inst, 70);
  core::GreedyDeliveryPlanner planner(inst);
  const auto plan_result = planner.plan(strategy.allocation,
                                        {inst.server_count(), 2});
  core::Strategy coded(strategy.allocation,
                       core::DeliveryProfile(plan_result.delivery));
  const auto plan =
      fault::FaultPlan::generate(inst, busy_profile(), 0x70 ^ 0x4a17);
  des::FlowSimOptions options;
  options.arrival_window_s = 15.0;
  options.fault_plan = &plan;
  const des::FlowLevelSimulator simulator(inst, options);
  util::Rng rng_a(70);
  util::Rng rng_b(70);
  const auto a = simulator.run(coded, rng_a);
  const auto b = simulator.run(coded, rng_b);
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
  const core::FragmentConfig config{8, 2};
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

// The profile's shape picks the format tag: replication (N, 1) writes an
// idde-strategy-v1 document, any other shape (a tight (4, 1) included) a
// coded one, and each reads back to the shape, hosts and ledger it was
// written from.
TEST(CodedIo, RoundTripsIntactStrategy) {
  const auto inst = model::make_instance(sized(8, 30, 4), 81);
  const auto strategy = solve(inst, 81);
  core::GreedyDeliveryPlanner planner(inst);
  const core::FragmentConfig replication =
      core::replication_shape(inst.server_count());
  for (const core::FragmentConfig shape :
       {core::FragmentConfig{6, 2}, core::FragmentConfig{4, 1},
        replication}) {
    SCOPED_TRACE(testing::Message() << "n " << shape.n << " k " << shape.k);
    const auto plan = planner.plan(strategy.allocation, shape);
    core::Strategy coded(strategy.allocation,
                         core::DeliveryProfile(plan.delivery));
    coded.approach_name = "IDDE-G+coded";
    coded.placements = plan.placements;
    const std::string text = core::strategy_to_string(coded, 2);
    EXPECT_EQ(util::Json::parse(text).string_or("format", ""),
              shape == replication ? core::kStrategyFormat
                                   : core::kCodedFormat);
    const auto back = core::strategy_from_string(inst, text);
    EXPECT_EQ(core::strategy_to_string(back, 2), text);
    EXPECT_EQ(back.delivery.shape().n, shape.n);
    EXPECT_EQ(back.delivery.shape().k, shape.k);
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
}

TEST(CodedIo, HostileDocumentsAreRejectedStructurally) {
  const auto inst = model::make_instance(sized(5, 12, 3), 83);
  const std::vector<std::string> hostile = {
      // unknown format tag
      R"({"format":"idde-strategy-v0","coding":{"n":1,"k":1},"allocation":[],"placements":[]})",
      // replication tag: the coding block is ignored, the empty
      // allocation is not
      R"({"format":"idde-strategy-v1","coding":{"n":1,"k":1},"allocation":[],"placements":[]})",
      // missing or negative shape fields
      R"({"format":"idde-coded-strategy-v1","coding":{"n":2},"allocation":[],"placements":[]})",
      R"({"format":"idde-coded-strategy-v1","coding":{"n":-1,"k":1},"allocation":[],"placements":[]})",
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
    EXPECT_THROW((void)core::strategy_from_string(inst, text),
                 util::JsonError)
        << text;
  }
}

TEST(CodedScenario, FragmentConfigJsonRoundTripsAndValidates) {
  const core::FragmentConfig config{6, 4};
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
  // Negative sizes must not wrap around to 2^64 - 1.
  EXPECT_THROW((void)sim::fragment_config_from_json(
                   util::Json::parse(R"({"n":-1,"k":-1})")),
               util::JsonError);
  EXPECT_THROW((void)sim::fragment_config_from_json(
                   util::Json::parse(R"({"n":-1,"k":1})")),
               util::JsonError);
}

}  // namespace
