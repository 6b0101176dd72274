// Delivery-latency model behind Eq. (8): the latency of serving item d_k at
// server v_i from replica host v_o is size_k * cost(o, i); the cloud (which
// always holds every item, Eq. 7) delivers at size_k / cloud_speed. The min
// over {replicas} ∪ {cloud} that Eq. (8) takes is core::Eq8Resolver's.
#pragma once

#include <cstddef>
#include <vector>

#include "net/shortest_path.hpp"

namespace idde::net {

class DeliveryLatencyModel {
 public:
  /// `cloud_speed_mbps` is the vendor's cloud->edge transfer speed.
  DeliveryLatencyModel(CostMatrix costs, double cloud_speed_mbps);

  [[nodiscard]] std::size_t server_count() const noexcept {
    return costs_.size();
  }

  /// Seconds to move `size_mb` from server `from` to server `to` in-system.
  [[nodiscard]] double edge_transfer_seconds(std::size_t from, std::size_t to,
                                             double size_mb) const {
    return costs_.cost(from, to) * size_mb;
  }

  /// Seconds to fetch `size_mb` from the remote cloud.
  [[nodiscard]] double cloud_transfer_seconds(double size_mb) const {
    return size_mb / cloud_speed_mbps_;
  }

  [[nodiscard]] const CostMatrix& costs() const noexcept { return costs_; }
  [[nodiscard]] double cloud_speed_mbps() const noexcept {
    return cloud_speed_mbps_;
  }

 private:
  CostMatrix costs_;
  double cloud_speed_mbps_;
};

}  // namespace idde::net
