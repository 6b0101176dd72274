#include "core/resolver.hpp"

#include <algorithm>

#include "core/health.hpp"
#include "core/strategy.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace idde::core {

namespace {

/// The resolver's one preference: lower health-weighted rank, then lower
/// unweighted seconds. Without a tracker rank == seconds, so this is the
/// plain strict `<` on seconds.
bool better(double rank, double seconds, double best_rank,
            double best_seconds) {
  return rank != best_rank ? rank < best_rank : seconds < best_seconds;
}

/// Leg order: the preference, then host id. Hosts are distinct, so this is
/// a strict total order and the best e legs are a deterministic prefix.
bool ranks_before(const EdgeLeg& a, const EdgeLeg& b) {
  if (a.rank != b.rank || a.seconds != b.seconds) {
    return better(a.rank, a.seconds, b.rank, b.seconds);
  }
  return a.host < b.host;
}

/// k = 1: one argmin pass in host order, starting from the cloud. The
/// strict preference keeps the lowest id on a tie, and the cloud on a tie
/// with it (the cloud is never weighted). Host kCloudSource = the cloud
/// wins.
template <class RankOf>
EdgeLeg argmin_leg(std::span<const std::size_t> hosts,
                   std::span<const std::uint8_t> server_up,
                   const net::CostMatrix& costs, const Eq8Request& request,
                   double cloud_s, RankOf rank_of) {
  EdgeLeg best{kCloudSource, cloud_s, cloud_s};
  for (const std::size_t host : hosts) {
    if (!server_up.empty() && !server_up[host]) continue;
    const double leg_s =
        costs.cost(host, request.serving) * request.fragment_mb;
    const double rank = rank_of(host, leg_s);
    if (better(rank, leg_s, best.rank, best.seconds)) {
      best = EdgeLeg{host, leg_s, rank};
    }
  }
  return best;
}

}  // namespace

Eq8Resolver::Eq8Resolver(const model::ProblemInstance& instance)
    : instance_(&instance),
      legs_(instance.server_count()),
      reference_(instance.server_count()) {}

double Eq8Resolver::topup_seconds(const Eq8Request& request,
                                  std::size_t fragments) const {
  if (fragments == 0) return 0.0;
  // All k fragments are the whole item: its exact size keeps the k = 1
  // cloud fallback bitwise the replication one.
  const double mb = fragments == request.k
                        ? request.item_mb
                        : request.fragment_mb * static_cast<double>(fragments);
  return instance_->latency().cloud_transfer_seconds(mb);
}

std::size_t Eq8Resolver::select(const Eq8Request& request,
                                std::span<const std::size_t> hosts,
                                std::span<const std::uint8_t> server_up,
                                const net::CostMatrix& costs,
                                const HealthTracker* health,
                                std::vector<EdgeLeg>& legs,
                                double& seconds) const {
  IDDE_EXPECTS(hosts.size() <= legs.size());
  seconds = topup_seconds(request, request.k);
  if (request.k == 1) {
    // Without a tracker the rank is the seconds; its own instantiation
    // keeps the health branch out of the hot argmin loop.
    const EdgeLeg best =
        health == nullptr
            ? argmin_leg(hosts, server_up, costs, request, seconds,
                         [](std::size_t, double leg_s) { return leg_s; })
            : argmin_leg(hosts, server_up, costs, request, seconds,
                         [health](std::size_t host, double leg_s) {
                           return leg_s / health->score(host);
                         });
    seconds = best.seconds;
    if (best.host == kCloudSource) return 0;
    legs[0] = best;
    return 1;
  }

  std::size_t survivors = 0;
  for (const std::size_t host : hosts) {
    if (!server_up.empty() && !server_up[host]) continue;
    const double leg_s =
        costs.cost(host, request.serving) * request.fragment_mb;
    legs[survivors++] = EdgeLeg{
        host, leg_s, health != nullptr ? leg_s / health->score(host) : leg_s};
  }
  const std::size_t max_e = std::min(survivors, request.k);
  const auto first = legs.begin();
  std::partial_sort(first, first + static_cast<std::ptrdiff_t>(max_e),
                    first + static_cast<std::ptrdiff_t>(survivors),
                    ranks_before);
  double best_rank = seconds;
  std::size_t best_e = 0;
  double slowest = 0.0;
  for (std::size_t e = 1; e <= max_e; ++e) {
    slowest = std::max(slowest, legs[e - 1].seconds);
    const double topup = topup_seconds(request, request.k - e);
    const double rank = std::max(legs[e - 1].rank, topup);
    const double total = std::max(slowest, topup);
    if (better(rank, total, best_rank, seconds)) {  // ties: smallest e
      best_rank = rank;
      best_e = e;
      seconds = total;
    }
  }
  return best_e;
}

Eq8Resolution Eq8Resolver::estimate(const Eq8Request& request) {
  IDDE_EXPECTS(request.k >= 1);
  const net::CostMatrix& fault_free_costs = instance_->latency().costs();
  const bool no_channel = request.serving == ChannelSlot::kNone;
  Eq8Resolution out;
  std::size_t e = 0;
  if (no_channel ||
      (!request.server_up.empty() && !request.server_up[request.serving])) {
    // Cloud-only user, or the user's own server died: nothing can relay an
    // edge leg, so the cloud serves the whole item.
    out.seconds = topup_seconds(request, request.k);
  } else {
    e = select(request, request.hosts, request.server_up,
               request.degraded_costs != nullptr ? *request.degraded_costs
                                                 : fault_free_costs,
               request.health, legs_, out.seconds);
  }
  out.legs = {legs_.data(), e};
  out.cloud_fragments = request.k - e;
  // With no edge leg the top-up is the whole request.
  out.cloud_seconds =
      e == 0 ? out.seconds : topup_seconds(request, out.cloud_fragments);

  // Tiers are classified against the fault-free, health-blind choice over
  // the unfiltered hosts — in the fault-free world, the choice itself.
  if (no_channel ||
      (request.server_up.empty() && request.degraded_costs == nullptr &&
       request.health == nullptr && request.fault_free_hosts.empty())) {
    return out;
  }
  double reference_seconds = 0.0;
  const std::size_t reference_e = select(
      request,
      request.fault_free_hosts.empty() ? request.hosts
                                       : request.fault_free_hosts,
      {}, fault_free_costs, nullptr, reference_, reference_seconds);
  if (e < reference_e) {
    out.tier = FallbackTier::kCloud;
  } else if (e > reference_e) {
    out.tier = FallbackTier::kReplica;
  } else {
    // Same fragment count: kPrimary iff the same hosts serve it. The two
    // lists may be ranked differently, so compare them as sets.
    const auto reference = reference_.begin();
    const bool same = std::all_of(
        legs_.begin(), legs_.begin() + static_cast<std::ptrdiff_t>(e),
        [&](const EdgeLeg& chosen) {
          return std::any_of(
              reference, reference + static_cast<std::ptrdiff_t>(e),
              [&](const EdgeLeg& ref) { return ref.host == chosen.host; });
        });
    out.tier = same ? FallbackTier::kPrimary : FallbackTier::kReplica;
  }
  return out;
}

Eq8Resolution Eq8Resolver::resolve(const Eq8Request& request) {
  const Eq8Resolution out = estimate(request);
  switch (out.tier) {
    case FallbackTier::kPrimary:
      IDDE_OBS_COUNT("resolve.primary_total", 1);
      break;
    case FallbackTier::kReplica:
      IDDE_OBS_COUNT("resolve.replica_total", 1);
      break;
    case FallbackTier::kCloud:
      IDDE_OBS_COUNT("resolve.cloud_total", 1);
      break;
  }
  IDDE_OBS_HISTOGRAM("resolve.latency_ms", out.seconds * 1e3);
  return out;
}

}  // namespace idde::core
