#include "oracles/scan_max_min.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/assert.hpp"

namespace idde::oracle {

void scan_max_min_rates(std::vector<des::detail::Leg>& legs,
                        const std::vector<double>& capacities,
                        des::detail::FluidScratch& scratch) {
  std::vector<double>& remaining_cap = scratch.remaining_cap;
  std::vector<std::size_t>& unfrozen_count = scratch.unfrozen_count;
  std::vector<std::uint8_t>& frozen = scratch.frozen;
  remaining_cap.assign(capacities.begin(), capacities.end());
  unfrozen_count.assign(capacities.size(), 0);
  frozen.assign(legs.size(), 0);
  for (const des::detail::Leg& leg : legs) {
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

}  // namespace idde::oracle
