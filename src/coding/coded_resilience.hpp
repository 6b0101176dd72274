// Analytic resilience of a coded strategy: fault::evaluate_resilience's
// epoch walk (fault/resilience.hpp) with the strategy's k, fragment sizes
// and the coded repair planner. Reuses fault::ResilienceReport so
// replication and coded runs are directly comparable; at k = 1 the
// numbers are bit-identical to fault::evaluate_resilience on the
// equivalent replication strategy.
#pragma once

#include "coding/coded_evaluator.hpp"
#include "coding/coded_profile.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "model/instance.hpp"

namespace idde::coding {

/// L_avg (Eq. 9) of a coded strategy in milliseconds.
[[nodiscard]] inline double coded_average_latency_ms(
    const model::ProblemInstance& instance,
    const core::AllocationProfile& allocation,
    const CodedDeliveryProfile& delivery, bool collaborative = true) {
  CodedDeliveryEvaluator evaluator(instance, allocation, delivery.config(),
                                   collaborative);
  for (std::size_t k = 0; k < instance.data_count(); ++k) {
    for (const std::size_t i : delivery.hosts(k)) evaluator.commit(i, k);
  }
  return evaluator.average_latency_seconds() * 1e3;
}

/// Coded mirror of fault::evaluate_resilience (see that header for the
/// epoch/weighting semantics). An inert plan short-circuits to the
/// fault-free metrics exactly.
[[nodiscard]] fault::ResilienceReport evaluate_coded_resilience(
    const model::ProblemInstance& instance, const CodedStrategy& strategy,
    const fault::FaultPlan& plan,
    fault::RepairPolicy policy = fault::RepairPolicy::kNone);

}  // namespace idde::coding
