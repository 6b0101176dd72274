#include "oracles/eq8_reference.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace idde::oracle {

double best_delivery_seconds(const net::DeliveryLatencyModel& latency,
                             std::span<const std::size_t> replica_hosts,
                             std::size_t to, double size_mb) {
  IDDE_EXPECTS(to < latency.server_count());
  IDDE_EXPECTS(size_mb >= 0.0);
  double best = latency.cloud_transfer_seconds(size_mb);
  for (const std::size_t host : replica_hosts) {
    best = std::min(best, latency.edge_transfer_seconds(host, to, size_mb));
  }
  return best;
}

double k_of_n_seconds(const net::DeliveryLatencyModel& latency,
                      std::span<const std::size_t> hosts, std::size_t serving,
                      double item_mb, double fragment_mb, std::size_t k) {
  IDDE_EXPECTS(k >= 1);
  IDDE_EXPECTS(serving < latency.server_count());
  const auto leg = [&](std::size_t host) {
    return latency.edge_transfer_seconds(host, serving, fragment_mb);
  };
  const auto topup = [&](std::size_t fragments) {
    if (fragments == 0) return 0.0;
    return latency.cloud_transfer_seconds(
        fragments == k ? item_mb
                       : fragment_mb * static_cast<double>(fragments));
  };
  // S = {}: the whole item from the cloud.
  double best = topup(k);
  // The objective sees a non-empty S only through its slowest member m and
  // its size s, and a subset with slowest member m and size s exists iff
  // at least s hosts (m included) are no slower than m. So the minimum over
  // all subsets is the minimum over those (m, s) pairs.
  for (const std::size_t slowest : hosts) {
    const double slowest_s = leg(slowest);
    std::size_t no_slower = 0;
    for (const std::size_t host : hosts) {
      if (leg(host) <= slowest_s) ++no_slower;
    }
    for (std::size_t s = 1; s <= std::min(no_slower, k); ++s) {
      best = std::min(best, std::max(slowest_s, topup(k - s)));
    }
  }
  return best;
}

}  // namespace idde::oracle
