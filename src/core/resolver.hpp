// Eq8Resolver: the one Eq. 8 resolver (DESIGN.md §10, §16, §17).
//
// The paper's Eq. 8 serves a request from the cheapest of the item's edge
// replicas and the cloud. The resolver generalises it to a k-of-n request
// in a degraded world: fetch e fragments from the e best surviving edge
// hosts (the legs run in parallel) and top the remaining k - e up from the
// cloud, so the delivery time is
//
//   max( slowest of the e chosen edge legs,
//        cloud transfer of the (k - e)-fragment top-up )
//
// minimised over e in 0..min(k, survivors), with strict `<` so the
// smallest e (the most cloud) wins ties. Replication is k = 1, where the
// choice is the plain argmin "cheapest surviving replica vs the whole item
// from the cloud" — one pass, no sort.
//
// Edge legs are ranked by seconds / score(host) when a HealthTracker is
// given, so a gray server must beat healthy alternatives by its own
// slowdown factor. A candidate set is priced at max(worst chosen rank,
// top-up): the cloud top-up is never weighted, equal prices go to the
// lower unweighted latency and then to the smallest e, and the reported
// seconds are always the unweighted latency of the chosen set. Without a
// tracker rank equals seconds; a fresh tracker scores every host exactly
// 1.0, so it resolves bit-identically to no tracker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/instance.hpp"
#include "net/shortest_path.hpp"

namespace idde::core {

class HealthTracker;

/// Which tier of the degraded preference order served a request, against
/// the fault-free, health-blind reference choice. kPrimary = the same
/// hosts serve the same fragment count; kCloud = faults pushed fragments
/// the reference served from the edge onto the cloud; kReplica = anything
/// else (other surviving hosts, or more edge fragments).
enum class FallbackTier : std::uint8_t {
  kPrimary = 0,
  kReplica = 1,
  kCloud = 2
};

inline constexpr std::size_t kFallbackTiers = 3;

/// Sentinel "replica host" meaning the cloud serves the request.
inline constexpr std::size_t kCloudSource = static_cast<std::size_t>(-1);

/// One request: the item's candidate `hosts` (ascending ids) for a user
/// served by `serving` (ChannelSlot::kNone = no radio channel, cloud
/// only), with the world it is resolved in.
struct Eq8Request {
  std::span<const std::size_t> hosts;
  std::size_t serving = 0;
  double item_mb = 0.0;
  /// Size of one fragment; equals item_mb for replication (k = 1).
  double fragment_mb = 0.0;
  std::size_t k = 1;
  /// Dead servers (empty = everything up).
  std::span<const std::uint8_t> server_up = {};
  /// Replaces the fault-free cost matrix (routes over the degraded graph;
  /// unreachable pairs are infinite).
  const net::CostMatrix* degraded_costs = nullptr;
  /// Health-weights the edge legs; null ranks by seconds alone.
  const HealthTracker* health = nullptr;
  /// The host set the fault-free reference classifies tiers against when
  /// `hosts` was pre-filtered (e.g. corrupt replicas dropped), so a lost
  /// primary is reported as a fallback; empty = `hosts`.
  std::span<const std::size_t> fault_free_hosts = {};
};

/// One chosen edge leg.
struct EdgeLeg {
  std::size_t host = 0;
  double seconds = 0.0;  ///< unweighted fetch time of one fragment
  double rank = 0.0;     ///< seconds / score(host): the ordering key
};

struct Eq8Resolution {
  /// The e chosen edge legs, best-ranked first. Valid until the resolver's
  /// next call.
  std::span<const EdgeLeg> legs;
  std::size_t cloud_fragments = 0;  ///< k - e, topped up from the cloud
  double cloud_seconds = 0.0;       ///< the top-up leg; 0 without one
  double seconds = 0.0;             ///< Eq. 8 latency of the chosen set
  FallbackTier tier = FallbackTier::kPrimary;

  [[nodiscard]] std::size_t edge_fragments() const noexcept {
    return legs.size();
  }
  /// The serving host of a k = 1 request, or kCloudSource.
  [[nodiscard]] std::size_t source() const noexcept {
    return legs.empty() ? kCloudSource : legs.front().host;
  }
};

/// Owns the leg scratch, so resolution allocates nothing per request. One
/// resolver per thread — never shared.
class Eq8Resolver {
 public:
  explicit Eq8Resolver(const model::ProblemInstance& instance);

  /// Resolves one request and counts it (resolve.*_total per tier and the
  /// resolve.latency_ms histogram).
  [[nodiscard]] Eq8Resolution resolve(const Eq8Request& request);

  /// The same decision, uncounted: for estimates that are not deliveries.
  [[nodiscard]] Eq8Resolution estimate(const Eq8Request& request);

 private:
  /// Latency-minimal edge fragment count over `hosts`; the chosen legs go
  /// to legs[0, e) and their unweighted Eq. 8 latency to `seconds`.
  std::size_t select(const Eq8Request& request,
                     std::span<const std::size_t> hosts,
                     std::span<const std::uint8_t> server_up,
                     const net::CostMatrix& costs,
                     const HealthTracker* health, std::vector<EdgeLeg>& legs,
                     double& seconds) const;

  /// Cloud transfer time of `fragments` of the request's k fragments.
  [[nodiscard]] double topup_seconds(const Eq8Request& request,
                                     std::size_t fragments) const;

  const model::ProblemInstance* instance_;
  std::vector<EdgeLeg> legs_;       ///< the degraded choice
  std::vector<EdgeLeg> reference_;  ///< the fault-free reference choice
};

}  // namespace idde::core
