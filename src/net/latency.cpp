#include "net/latency.hpp"

#include <utility>

#include "util/assert.hpp"

namespace idde::net {

DeliveryLatencyModel::DeliveryLatencyModel(CostMatrix costs,
                                           double cloud_speed_mbps)
    : costs_(std::move(costs)), cloud_speed_mbps_(cloud_speed_mbps) {
  IDDE_EXPECTS(cloud_speed_mbps > 0.0);
}

}  // namespace idde::net
