#include "coding/coded_resilience.hpp"

#include "coding/coded_planner.hpp"
#include "fault/resilience.hpp"

namespace idde::coding {

fault::ResilienceReport evaluate_coded_resilience(
    const model::ProblemInstance& instance, const CodedStrategy& strategy,
    const fault::FaultPlan& plan, fault::RepairPolicy policy) {
  const CodedDeliveryProfile& delivery = strategy.delivery;
  return fault::walk_resilience<CodedRepairPlanner>(
      instance, strategy, plan, policy,
      coded_average_latency_ms(instance, strategy.allocation, delivery,
                               strategy.collaborative_delivery),
      delivery.config().k,
      [&delivery](std::size_t item) {
        return delivery.item_fragment_mb(item);
      });
}

}  // namespace idde::coding
