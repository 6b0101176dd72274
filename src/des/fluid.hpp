// Internal fluid-flow machinery of the DES (flow_sim.cpp). Not part of the
// public des:: surface.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/assert.hpp"

namespace idde::des::detail {

/// One routed edge leg in flight. The fields the fluid step touches come
/// first.
struct Leg {
  std::vector<std::size_t> links;
  double rate_mbps = 0.0;     ///< max-min share, set by assign_max_min_rates
  double remaining_mb = 0.0;
  /// 1 / gray latency multiplier of the source at launch: the leg holds
  /// its full max-min share of every link but drains at rate * rate_scale
  /// (a slow server does not free up the network).
  double rate_scale = 1.0;
  std::size_t record = 0;     ///< FlowRecord index of the request
  std::size_t source = 0;     ///< edge server the leg reads from
  double size_mb = 0.0;       ///< item (replication) or fragment size
  double expected_s = 0.0;    ///< uncontended resolver seconds at launch
  bool lost = false;          ///< gray loss, drawn at launch, seen at landing
};

/// Water-filling work arrays, owned by the run and reused across calls.
struct FluidScratch {
  std::vector<double> remaining_cap;
  std::vector<std::size_t> unfrozen_count;
  std::vector<std::uint8_t> frozen;
};

/// Max-min fair rates for the legs over shared links (iterative
/// water-filling: repeatedly freeze the legs of the tightest link).
inline void assign_max_min_rates(std::vector<Leg>& legs,
                                 const std::vector<double>& capacities,
                                 FluidScratch& scratch) {
  std::vector<double>& remaining_cap = scratch.remaining_cap;
  std::vector<std::size_t>& unfrozen_count = scratch.unfrozen_count;
  std::vector<std::uint8_t>& frozen = scratch.frozen;
  remaining_cap.assign(capacities.begin(), capacities.end());
  unfrozen_count.assign(capacities.size(), 0);
  frozen.assign(legs.size(), 0);
  for (const Leg& leg : legs) {
    for (const std::size_t l : leg.links) ++unfrozen_count[l];
  }
  std::size_t legs_left = legs.size();
  while (legs_left > 0) {
    // Tightest link among those still carrying unfrozen legs.
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best_link = static_cast<std::size_t>(-1);
    for (std::size_t l = 0; l < capacities.size(); ++l) {
      if (unfrozen_count[l] == 0) continue;
      const double share =
          remaining_cap[l] / static_cast<double>(unfrozen_count[l]);
      if (share < best_share) {
        best_share = share;
        best_link = l;
      }
    }
    IDDE_ASSERT(best_link != static_cast<std::size_t>(-1),
                "active leg without links");
    for (std::size_t f = 0; f < legs.size(); ++f) {
      if (frozen[f] != 0) continue;
      const std::vector<std::size_t>& ls = legs[f].links;
      if (std::find(ls.begin(), ls.end(), best_link) == ls.end()) continue;
      legs[f].rate_mbps = best_share;
      frozen[f] = 1;
      --legs_left;
      for (const std::size_t l : ls) {
        remaining_cap[l] -= best_share;
        --unfrozen_count[l];
      }
      // Guard fp residue.
      for (const std::size_t l : ls) {
        remaining_cap[l] = std::max(remaining_cap[l], 0.0);
      }
    }
  }
}

}  // namespace idde::des::detail
