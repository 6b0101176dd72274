#include "core/metrics.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace idde::core {

std::vector<double> user_rates(const model::ProblemInstance& instance,
                               const AllocationProfile& allocation) {
  IDDE_EXPECTS(allocation.size() == instance.user_count());
  radio::InterferenceField field(instance.radio_env());
  for (std::size_t j = 0; j < allocation.size(); ++j) {
    if (allocation[j].allocated()) field.add_user(j, allocation[j]);
  }
  std::vector<double> rates(instance.user_count(), 0.0);
  for (std::size_t j = 0; j < allocation.size(); ++j) {
    if (!allocation[j].allocated()) continue;
    const double shannon = field.rate_mbps(j, allocation[j]);
    rates[j] = std::min(instance.user(j).max_rate_mbps, shannon);
  }
  return rates;
}

double average_data_rate_mbps(const model::ProblemInstance& instance,
                         const AllocationProfile& allocation) {
  if (instance.user_count() == 0) return 0.0;
  const auto rates = user_rates(instance, allocation);
  double sum = 0.0;
  for (const double r : rates) sum += r;
  return sum / static_cast<double>(instance.user_count());
}

double average_latency_ms(const model::ProblemInstance& instance,
                          const AllocationProfile& allocation,
                          const DeliveryProfile& delivery,
                          bool collaborative) {
  const std::size_t requests = instance.requests().total_requests();
  if (requests == 0) return 0.0;
  return total_latency_seconds(instance, allocation, delivery,
                               collaborative) /
         static_cast<double>(requests) * 1e3;
}

StrategyMetrics evaluate(const model::ProblemInstance& instance,
                         const Strategy& strategy) {
  StrategyMetrics metrics;
  metrics.avg_rate_mbps = average_data_rate_mbps(instance, strategy.allocation);
  metrics.avg_latency_ms =
      average_latency_ms(instance, strategy.allocation, strategy.delivery,
                         strategy.collaborative_delivery);
  metrics.allocated_users = static_cast<std::size_t>(
      std::count_if(strategy.allocation.begin(), strategy.allocation.end(),
                    [](const ChannelSlot& s) { return s.allocated(); }));
  metrics.placements = strategy.delivery.placement_count();
  return metrics;
}

}  // namespace idde::core
