// Golden digests of Eq. 8 resolution and of the analytic resilience walk.
//
// The resolver cases fold every request's decision — edge fragment count,
// chosen hosts in leg order, per-leg seconds, total seconds and fallback
// tier — into one FNV-1a digest per seed, over every combination of
// {no mask, random masks with filtered corrupt hosts} x {fault-free,
// degraded costs}. They cover replication failover, health-weighted
// resolution at k = 1 (fresh and loaded trackers) and coded resolution at
// k = 2 and 3. The resilience cases fold every ResilienceReport field for
// {no repair, greedy repair} x {plain, corruption} x k in {1, 2}. The
// pinned values are exact, so a rewrite of the resolver or of the epoch
// walk must reproduce them bit for bit.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "core/greedy_delivery.hpp"
#include "core/health.hpp"
#include "core/idde_g.hpp"
#include "core/resolver.hpp"
#include "core/strategy.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "model/instance_builder.hpp"
#include "net/graph.hpp"
#include "net/shortest_path.hpp"
#include "sim/paper.hpp"
#include "util/random.hpp"

namespace {

using namespace idde;

constexpr std::array<std::uint64_t, 3> kSeeds{1, 2, 3};

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

struct Scenario {
  model::ProblemInstance instance;
  core::Strategy strategy;
};

Scenario scenario(std::uint64_t seed) {
  model::InstanceParams params = sim::paper_default_params();
  params.server_count = 15;
  params.user_count = 90;
  params.data_count = 6;
  model::ProblemInstance instance = model::make_instance(params, seed);
  util::Rng rng(seed);
  core::Strategy strategy = core::IddeG().solve(instance, rng);
  return Scenario{std::move(instance), std::move(strategy)};
}

/// The instance graph with roughly a quarter of its edges cut: some
/// server pairs become slower to reach, some unreachable (infinite cost).
net::CostMatrix degraded_costs(const model::ProblemInstance& instance,
                               util::Rng& rng) {
  const net::Graph& base = instance.graph();
  std::vector<net::Edge> edges;
  for (std::size_t a = 0; a < base.node_count(); ++a) {
    for (const net::Neighbor& nb : base.neighbors(a)) {
      if (a < nb.node && rng.index(4) > 0) {
        edges.push_back(net::Edge{a, nb.node, nb.weight});
      }
    }
  }
  return net::CostMatrix(net::Graph(base.node_count(), edges));
}

/// A tracker with evidence: every server sees a few legs inflated 1-6x
/// and about one server in three also loses legs.
core::HealthTracker loaded_tracker(std::size_t servers, util::Rng& rng) {
  core::HealthTracker tracker(servers, {});
  for (std::size_t i = 0; i < servers; ++i) {
    for (int leg = 0; leg < 4; ++leg) {
      tracker.record_leg(i, 1.0, rng.uniform(1.0, 6.0));
    }
    if (rng.index(3) == 0) tracker.record_loss(i);
  }
  return tracker;
}

/// One resolution as the digest sees it: the chosen hosts in leg order
/// with their seconds, then the total seconds and the tier.
void fold(Fnv& fnv, const core::Eq8Resolution& resolution) {
  fnv.mix(std::uint64_t{resolution.edge_fragments()});
  for (const core::EdgeLeg& leg : resolution.legs) {
    fnv.mix(std::uint64_t{leg.host});
    fnv.mix(leg.seconds);
  }
  fnv.mix(resolution.seconds);
  fnv.mix(static_cast<std::uint64_t>(resolution.tier));
}

enum class Tracker { kNone, kFresh, kLoaded };

/// Digest of every request of one seeded scenario, resolved under the
/// four {mask} x {costs} worlds.
std::uint64_t resolver_digest(std::uint64_t seed, std::size_t k,
                              Tracker tracker_kind) {
  const Scenario s = scenario(seed);
  const model::ProblemInstance& inst = s.instance;
  util::Rng rng(seed ^ 0x5e1fULL);
  const net::CostMatrix costs = degraded_costs(inst, rng);
  const core::HealthTracker fresh(inst.server_count(), {});
  const core::HealthTracker loaded = loaded_tracker(inst.server_count(), rng);
  const core::HealthTracker* health =
      tracker_kind == Tracker::kNone    ? nullptr
      : tracker_kind == Tracker::kFresh ? &fresh
                                        : &loaded;

  core::Eq8Resolver resolver(inst);
  Fnv fnv;
  std::vector<std::uint8_t> up(inst.server_count(), 1);
  std::vector<std::size_t> kept;
  for (const bool masked : {false, true}) {
    for (const bool degraded : {false, true}) {
      for (std::size_t j = 0; j < inst.user_count(); ++j) {
        const core::ChannelSlot slot = s.strategy.allocation[j];
        const std::size_t serving =
            slot.allocated() ? slot.server : core::ChannelSlot::kNone;
        for (const std::size_t item : inst.requests().items_of(j)) {
          const auto hosts = s.strategy.delivery.hosts(item);
          const double size = inst.data(item).size_mb;
          core::Eq8Request request{
              .hosts = hosts,
              .serving = serving,
              .item_mb = size,
              .fragment_mb = core::fragment_size_mb(size, k),
              .k = k,
              .degraded_costs = degraded ? &costs : nullptr,
              .health = health};
          if (masked) {
            // A fresh random mask per request, and about one host in five
            // filtered out as corrupt against the full reference set.
            for (auto& flag : up) flag = rng.index(4) > 0 ? 1 : 0;
            kept.clear();
            for (const std::size_t host : hosts) {
              if (rng.index(5) > 0) kept.push_back(host);
            }
            request.hosts = kept;
            request.server_up = up;
            request.fault_free_hosts = hosts;
          }
          fold(fnv, resolver.resolve(request));
        }
      }
    }
  }
  return fnv.value();
}

void expect_resolver_digests(const std::array<std::uint64_t, 3>& pinned,
                             std::size_t k, Tracker tracker) {
  for (std::size_t i = 0; i < kSeeds.size(); ++i) {
    EXPECT_EQ(hex(resolver_digest(kSeeds[i], k, tracker)), hex(pinned[i]))
        << "seed " << kSeeds[i];
  }
}

TEST(ResolverGolden, ReplicationNoTracker) {
  expect_resolver_digests(
      {0xfc3ad55a05b0e68dULL, 0x9dc10274b8080d7eULL, 0x795ab546d8ae85aeULL},
      1, Tracker::kNone);
}

TEST(ResolverGolden, ReplicationFreshTracker) {
  expect_resolver_digests(
      {0xfc3ad55a05b0e68dULL, 0x9dc10274b8080d7eULL, 0x795ab546d8ae85aeULL},
      1, Tracker::kFresh);
}

TEST(ResolverGolden, ReplicationLoadedTracker) {
  expect_resolver_digests(
      {0x1617e84a798d11b5ULL, 0xf7955cebe6efc252ULL, 0x27bec80918f6653bULL},
      1, Tracker::kLoaded);
}

TEST(ResolverGolden, CodedK2) {
  expect_resolver_digests(
      {0x5d339afc39e2284dULL, 0x9d85c263ae88910aULL, 0xadae7d9c4f112674ULL},
      2, Tracker::kNone);
}

TEST(ResolverGolden, CodedK3) {
  expect_resolver_digests(
      {0x3a3024ae1cbcd34cULL, 0xd5a4a98ffa935eb8ULL, 0xf97f33f410d8ca91ULL},
      3, Tracker::kNone);
}

// --- the resilience epoch walk -------------------------------------------

fault::FaultProfile busy_faults(double corruption) {
  fault::FaultProfile profile;
  profile.horizon_s = 45.0;
  profile.server_mtbf_s = 15.0;
  profile.server_mttr_s = 5.0;
  profile.link_mtbf_s = 12.0;
  profile.link_mttr_s = 4.0;
  profile.cloud_mtbf_s = 30.0;
  profile.cloud_mttr_s = 3.0;
  profile.replica_corruption_prob = corruption;
  return profile;
}

std::uint64_t report_digest(const fault::ResilienceReport& report) {
  Fnv fnv;
  fnv.mix(report.fault_free_latency_ms);
  fnv.mix(report.degraded_latency_ms);
  fnv.mix(report.availability);
  for (const double fraction : report.tier_fraction) fnv.mix(fraction);
  fnv.mix(std::uint64_t{report.epochs});
  fnv.mix(std::uint64_t{report.lost_placements});
  fnv.mix(std::uint64_t{report.repair_placements});
  return fnv.value();
}

/// Resilience report of one seeded scenario through
/// fault::evaluate_resilience: the replication strategy at k = 1, a greedy
/// (N, k) plan otherwise.
std::uint64_t resilience_digest(std::uint64_t seed, std::size_t k,
                                fault::RepairPolicy policy,
                                double corruption) {
  const Scenario s = scenario(seed);
  const auto plan = fault::FaultPlan::generate(
      s.instance, busy_faults(corruption), seed ^ 0x4a17);
  if (k == 1) {
    return report_digest(
        fault::evaluate_resilience(s.instance, s.strategy, plan, policy));
  }
  core::GreedyDeliveryPlanner planner(s.instance);
  auto planned =
      planner.plan(s.strategy.allocation, {s.instance.server_count(), k});
  core::Strategy coded(s.strategy.allocation,
                       core::DeliveryProfile(planned.delivery));
  coded.collaborative_delivery = s.strategy.collaborative_delivery;
  return report_digest(
      fault::evaluate_resilience(s.instance, coded, plan, policy));
}

void expect_resilience_digests(const std::array<std::uint64_t, 3>& pinned,
                               std::size_t k, fault::RepairPolicy policy,
                               double corruption) {
  for (std::size_t i = 0; i < kSeeds.size(); ++i) {
    EXPECT_EQ(hex(resilience_digest(kSeeds[i], k, policy, corruption)),
              hex(pinned[i]))
        << "seed " << kSeeds[i];
  }
}

TEST(ResilienceGolden, ReplicationNoRepair) {
  expect_resilience_digests(
      {0xb035241e1033761cULL, 0x44e976d7fc11c016ULL, 0x14835fa48ff868f5ULL},
      1, fault::RepairPolicy::kNone, 0.0);
}

TEST(ResilienceGolden, ReplicationNoRepairCorruption) {
  expect_resilience_digests(
      {0xafe1c5f130e3e82fULL, 0x7627cc724011d7cbULL, 0xfa3f6c1b3c047a11ULL},
      1, fault::RepairPolicy::kNone, 0.1);
}

TEST(ResilienceGolden, ReplicationGreedy) {
  expect_resilience_digests(
      {0x68dbda1a3cb2548ULL, 0x816d406c5adee880ULL, 0x1873c5969cedeb0aULL},
      1, fault::RepairPolicy::kGreedy, 0.0);
}

TEST(ResilienceGolden, ReplicationGreedyCorruption) {
  expect_resilience_digests(
      {0x6a6e0a3e99bebc8bULL, 0x554f5de7ac92fbdbULL, 0x272040faf6a9b98aULL},
      1, fault::RepairPolicy::kGreedy, 0.1);
}

TEST(ResilienceGolden, CodedK2NoRepair) {
  expect_resilience_digests(
      {0x4ebff6121047d5a9ULL, 0xe35144a8eeb2e1a3ULL, 0x4326e719c3a6568ULL},
      2, fault::RepairPolicy::kNone, 0.0);
}

TEST(ResilienceGolden, CodedK2NoRepairCorruption) {
  expect_resilience_digests(
      {0x569bf8878da8b17eULL, 0xcec28aa77e670347ULL, 0xca2c6588fe96478ULL},
      2, fault::RepairPolicy::kNone, 0.1);
}

TEST(ResilienceGolden, CodedK2Greedy) {
  expect_resilience_digests(
      {0x7f086718d81b1175ULL, 0x5df9033d53b81bafULL, 0x160fd07ac7cad8feULL},
      2, fault::RepairPolicy::kGreedy, 0.0);
}

TEST(ResilienceGolden, CodedK2GreedyCorruption) {
  expect_resilience_digests(
      {0x944e74231aa85c55ULL, 0xb704047be191af7dULL, 0xbfad6e3e532cda00ULL},
      2, fault::RepairPolicy::kGreedy, 0.1);
}

}  // namespace
