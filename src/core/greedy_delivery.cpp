#include "core/greedy_delivery.hpp"

#include <utility>

#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace idde::core {

namespace {

/// Eq. 6 budget utilisation of a finished sigma on the usable servers.
/// Observation only.
template <class Usable>
void record_budget_utilization(const model::ProblemInstance& instance,
                               const DeliveryProfile& delivery,
                               const Usable& usable, const char* histogram) {
#if IDDE_OBS
  if (!obs::enabled()) return;
  obs::Histogram& utilization =
      obs::MetricsRegistry::global().histogram(histogram);
  for (std::size_t i = 0; i < instance.server_count(); ++i) {
    if (!usable.server(i)) continue;
    const double capacity = instance.server(i).storage_mb;
    if (capacity <= 0.0) continue;
    utilization.record(1.0 - delivery.free_mb(i) / capacity);
  }
#else
  (void)instance;
  (void)delivery;
  (void)usable;
  (void)histogram;
#endif
}

}  // namespace

GreedyDeliveryPlanner::GreedyDeliveryPlanner(
    const model::ProblemInstance& instance)
    : instance_(&instance) {}

DeliveryEvaluator& GreedyDeliveryPlanner::evaluator_for(
    const AllocationProfile& allocation, FragmentConfig shape,
    bool collaborative) {
  if (evaluator_.has_value()) {
    evaluator_->reset(allocation, shape, collaborative);
  } else {
    evaluator_.emplace(*instance_, allocation, shape, collaborative);
  }
  return *evaluator_;
}

GreedyDeliveryResult GreedyDeliveryPlanner::plan(
    const AllocationProfile& allocation) {
  return plan(allocation, replication_shape(instance_->server_count()), true);
}

GreedyDeliveryResult GreedyDeliveryPlanner::plan(
    const AllocationProfile& allocation, FragmentConfig shape,
    bool collaborative) {
  const model::ProblemInstance& instance = *instance_;
  IDDE_EXPECTS(shape.valid());
  const bool coded = shape.k > 1;
  IDDE_OBS_SPAN(coded ? "coding.plan" : "delivery.plan");
  const EveryPlacementUsable usable;
  DeliveryProfile delivery(instance, shape);
  DeliveryEvaluator& evaluator =
      evaluator_for(allocation, shape, collaborative);
  const GreedyRun run =
      run_lazy_greedy(nullptr, delivery, evaluator, heap_, usable,
                      std::numeric_limits<std::size_t>::max());

  if (coded) {
    IDDE_OBS_COUNT("coding.plans_total", 1);
    IDDE_OBS_COUNT("coding.candidates_scanned_total", run.gain_evaluations);
    IDDE_OBS_COUNT("coding.placements_total", run.placements);
  } else {
    IDDE_OBS_COUNT("delivery.plans_total", 1);
    IDDE_OBS_COUNT("delivery.candidates_scanned_total", run.gain_evaluations);
    IDDE_OBS_COUNT("delivery.placements_total", run.placements);
#if IDDE_OBS
    if (obs::enabled()) {
      // The post-plan per-request latency distribution: the Eq. 8
      // resolution the strategy commits to.
      obs::Histogram& latency = obs::MetricsRegistry::global().histogram(
          "delivery.request_latency_ms");
      for (std::size_t id = 0; id < evaluator.request_count(); ++id) {
        latency.record(evaluator.request_latency_seconds(id) * 1e3);
      }
    }
#endif
    record_budget_utilization(instance, delivery, usable,
                              "delivery.budget_utilization");
  }
  return GreedyDeliveryResult{std::move(delivery), run.placements,
                              run.gain_evaluations, run.rescan_rounds};
}

RepairResult GreedyDeliveryPlanner::replan(
    const AllocationProfile& allocation, const DeliveryProfile& sigma,
    std::span<const std::uint8_t> server_up, const ReplicaLost& replica_lost,
    bool collaborative, std::size_t max_placements) {
  const model::ProblemInstance& instance = *instance_;
  IDDE_EXPECTS(allocation.size() == instance.user_count());
  IDDE_EXPECTS(server_up.empty() || server_up.size() == instance.server_count());
  const bool coded = sigma.shape().k > 1;
  IDDE_OBS_SPAN(coded ? "coding.replan" : "repair.replan");
  const SurvivingPlacements usable{server_up, replica_lost};
  usable.mask(allocation, effective_);
  DeliveryProfile delivery(instance, sigma.shape());
  const GreedyRun run = run_lazy_greedy(
      &sigma, delivery, evaluator_for(effective_, sigma.shape(), collaborative),
      heap_, usable, max_placements);

  if (coded) {
    IDDE_OBS_COUNT("coding.replans_total", 1);
    IDDE_OBS_COUNT("coding.repair_candidates_scanned_total",
                   run.gain_evaluations);
    IDDE_OBS_COUNT("coding.repair_placements_total", run.placements);
    IDDE_OBS_COUNT("coding.lost_placements_total", run.lost_placements);
  } else {
    IDDE_OBS_COUNT("repair.replans_total", 1);
    IDDE_OBS_COUNT("repair.candidates_scanned_total", run.gain_evaluations);
    IDDE_OBS_COUNT("repair.placements_total", run.placements);
    IDDE_OBS_COUNT("repair.lost_placements_total", run.lost_placements);
    record_budget_utilization(instance, delivery, usable,
                              "repair.budget_utilization");
  }
  return RepairResult{std::move(delivery), run.lost_placements, run.placements,
                      run.recovered_gain_seconds};
}

}  // namespace idde::core
