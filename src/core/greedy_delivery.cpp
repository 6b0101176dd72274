#include "core/greedy_delivery.hpp"

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
    const AllocationProfile& allocation, bool collaborative) {
  if (evaluator_.has_value()) {
    evaluator_->reset(allocation, collaborative);
  } else {
    evaluator_.emplace(*instance_, allocation, collaborative);
  }
  return *evaluator_;
}

GreedyDeliveryResult GreedyDeliveryPlanner::plan(
    const AllocationProfile& allocation) {
  const model::ProblemInstance& instance = *instance_;
  IDDE_OBS_SPAN("delivery.plan");
  GreedyDeliveryResult result{DeliveryProfile(instance), 0, 0};
  DeliveryEvaluator& evaluator = evaluator_for(allocation, true);
  const EveryPlacementUsable usable;
  const GreedyRun run = run_lazy_greedy<DeliveryProfile>(
      nullptr, result.delivery, evaluator, heap_, usable,
      std::numeric_limits<std::size_t>::max());
  result.placements = run.placements;
  result.gain_evaluations = run.gain_evaluations;

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
  record_budget_utilization(instance, result.delivery, usable,
                            "delivery.budget_utilization");
  return result;
}

RepairResult GreedyDeliveryPlanner::replan(
    const AllocationProfile& allocation, const DeliveryProfile& sigma,
    std::span<const std::uint8_t> server_up, const ReplicaLost& replica_lost,
    bool collaborative, std::size_t max_placements) {
  const model::ProblemInstance& instance = *instance_;
  IDDE_EXPECTS(allocation.size() == instance.user_count());
  IDDE_EXPECTS(server_up.empty() || server_up.size() == instance.server_count());
  IDDE_OBS_SPAN("repair.replan");
  const SurvivingPlacements usable{server_up, replica_lost};
  usable.mask(allocation, effective_);
  RepairResult result{DeliveryProfile(instance), 0, 0, 0.0};
  const GreedyRun run = run_lazy_greedy(
      &sigma, result.delivery, evaluator_for(effective_, collaborative),
      heap_, usable, max_placements);
  result.lost_placements = run.lost_placements;
  result.repair_placements = run.placements;
  result.recovered_gain_seconds = run.recovered_gain_seconds;

  IDDE_OBS_COUNT("repair.replans_total", 1);
  IDDE_OBS_COUNT("repair.candidates_scanned_total", run.gain_evaluations);
  IDDE_OBS_COUNT("repair.placements_total", run.placements);
  IDDE_OBS_COUNT("repair.lost_placements_total", run.lost_placements);
  record_budget_utilization(instance, result.delivery, usable,
                            "repair.budget_utilization");
  return result;
}

}  // namespace idde::core
