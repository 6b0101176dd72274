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

/// Water-filling work arrays, owned by the run and reused across calls: a
/// call whose legs, hops and links fit the capacity left by earlier calls
/// allocates nothing.
struct FluidScratch {
  std::vector<double> remaining_cap;        ///< per link
  std::vector<std::size_t> unfrozen_count;  ///< per link
  std::vector<std::uint8_t> frozen;         ///< per leg
  /// Link -> legs index (CSR): the legs of link l, in ascending leg index,
  /// are leg_of[offset[l] .. offset[l + 1]).
  std::vector<std::size_t> offset;  ///< per link, plus one
  std::vector<std::size_t> cursor;  ///< per link, fill position
  std::vector<std::size_t> leg_of;  ///< one entry per (leg, hop)
  std::vector<std::size_t> loaded;  ///< links with unfrozen legs, ascending
};

/// Max-min fair rates for the legs over shared links (iterative
/// water-filling: repeatedly freeze the legs of the tightest link). Returns
/// the number of freeze rounds.
///
/// Each round scans only the links that still carry unfrozen legs and walks
/// only the bottleneck link's legs. Links are scanned in ascending id with a
/// strict `<` (lowest link wins ties) and legs are frozen in ascending index,
/// so every subtraction and clamp happens in the order of a full scan over
/// all links and legs: the rates are bit-identical to it
/// (tests/oracles/scan_max_min.hpp, tests/test_fluid.cpp).
inline std::size_t assign_max_min_rates(std::vector<Leg>& legs,
                                        const std::vector<double>& capacities,
                                        FluidScratch& scratch) {
  std::vector<double>& remaining_cap = scratch.remaining_cap;
  std::vector<std::size_t>& unfrozen_count = scratch.unfrozen_count;
  std::vector<std::uint8_t>& frozen = scratch.frozen;
  std::vector<std::size_t>& offset = scratch.offset;
  std::vector<std::size_t>& cursor = scratch.cursor;
  std::vector<std::size_t>& leg_of = scratch.leg_of;
  std::vector<std::size_t>& loaded = scratch.loaded;
  const std::size_t link_count = capacities.size();
  remaining_cap.resize(link_count);
  unfrozen_count.assign(link_count, 0);
  frozen.assign(legs.size(), 0);
  for (const Leg& leg : legs) {
    for (const std::size_t l : leg.links) ++unfrozen_count[l];
  }
  offset.resize(link_count + 1);
  cursor.resize(link_count);
  loaded.clear();
  loaded.reserve(link_count);
  std::size_t entries = 0;
  for (std::size_t l = 0; l < link_count; ++l) {
    offset[l] = entries;
    cursor[l] = entries;
    if (unfrozen_count[l] == 0) continue;
    remaining_cap[l] = capacities[l];
    loaded.push_back(l);
    entries += unfrozen_count[l];
  }
  offset[link_count] = entries;
  leg_of.resize(entries);
  for (std::size_t f = 0; f < legs.size(); ++f) {
    for (const std::size_t l : legs[f].links) leg_of[cursor[l]++] = f;
  }

  std::size_t rounds = 0;
  std::size_t legs_left = legs.size();
  while (legs_left > 0) {
    ++rounds;
    // Tightest link among those still carrying unfrozen legs; links whose
    // legs have all frozen leave the list.
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best_link = static_cast<std::size_t>(-1);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      const std::size_t l = loaded[i];
      if (unfrozen_count[l] == 0) continue;
      loaded[kept++] = l;
      const double share =
          remaining_cap[l] / static_cast<double>(unfrozen_count[l]);
      if (share < best_share) {
        best_share = share;
        best_link = l;
      }
    }
    loaded.resize(kept);
    IDDE_ASSERT(best_link != static_cast<std::size_t>(-1),
                "active leg without links");
    for (std::size_t i = offset[best_link]; i < offset[best_link + 1]; ++i) {
      const std::size_t f = leg_of[i];
      if (frozen[f] != 0) continue;
      const std::vector<std::size_t>& ls = legs[f].links;
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
  return rounds;
}

}  // namespace idde::des::detail
