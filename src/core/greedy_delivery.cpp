#include "core/greedy_delivery.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace idde::core {

namespace {

/// Telemetry for a finished plan: counters, the post-plan per-request
/// latency distribution (the Eq. 8 resolution the strategy commits to),
/// and per-server storage-budget utilisation. Observation only.
void record_plan_telemetry(const model::ProblemInstance& instance,
                           const DeliveryEvaluator& evaluator,
                           const GreedyDeliveryResult& result) {
  IDDE_OBS_COUNT("delivery.plans_total", 1);
  IDDE_OBS_COUNT("delivery.candidates_scanned_total",
                 result.gain_evaluations);
  IDDE_OBS_COUNT("delivery.placements_total", result.placements);
#if IDDE_OBS
  if (obs::enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    obs::Histogram& latency =
        registry.histogram("delivery.request_latency_ms");
    for (std::size_t id = 0; id < evaluator.request_count(); ++id) {
      latency.record(evaluator.request_latency_seconds(id) * 1e3);
    }
    obs::Histogram& utilization =
        registry.histogram("delivery.budget_utilization");
    for (std::size_t i = 0; i < instance.server_count(); ++i) {
      const double capacity = instance.server(i).storage_mb;
      if (capacity <= 0.0) continue;
      utilization.record(1.0 - result.delivery.free_mb(i) / capacity);
    }
  }
#else
  (void)instance;
  (void)evaluator;
#endif
}

constexpr double kMinGain = 1e-12;  // "no feasible improving decision"

}  // namespace

GreedyDeliveryPlanner::GreedyDeliveryPlanner(
    const model::ProblemInstance& instance)
    : instance_(&instance) {}

DeliveryEvaluator& GreedyDeliveryPlanner::evaluator_for(
    const AllocationProfile& allocation) {
  if (evaluator_.has_value()) {
    evaluator_->reset(allocation);
  } else {
    evaluator_.emplace(*instance_, allocation);
  }
  return *evaluator_;
}

GreedyDeliveryResult GreedyDeliveryPlanner::plan(
    const AllocationProfile& allocation) {
  const model::ProblemInstance& instance = *instance_;
  IDDE_OBS_SPAN("delivery.plan");
  GreedyDeliveryResult result{DeliveryProfile(instance), 0, 0};
  DeliveryEvaluator& evaluator = evaluator_for(allocation);

  // The initial fill pushes up to S*K candidates; reserving the member
  // vector once bounds its capacity for every later plan — the loops below
  // run push_heap/pop_heap in place with no per-move allocation (the same
  // sift operations std::priority_queue performs, hence the same pop
  // order and the same plan).
  heap_.clear();
  heap_.reserve(instance.server_count() * instance.data_count());
  for (std::size_t i = 0; i < instance.server_count(); ++i) {
    for (std::size_t k = 0; k < instance.data_count(); ++k) {
      if (!result.delivery.can_place(i, k)) continue;
      const double gain = evaluator.gain_seconds(i, k);
      ++result.gain_evaluations;
      if (gain > kMinGain) {
        heap_.push_back(Candidate{gain / instance.data(k).size_mb, i, k});
        std::push_heap(heap_.begin(), heap_.end());
      }
    }
  }

  while (!heap_.empty()) {
    const Candidate top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
    // Storage only shrinks, so a now-infeasible candidate never returns.
    if (!result.delivery.can_place(top.server, top.item)) continue;
    const double gain = evaluator.gain_seconds(top.server, top.item);
    ++result.gain_evaluations;
    const double ratio = gain / instance.data(top.item).size_mb;
    if (gain <= kMinGain) continue;  // decayed to nothing, drop
    if (!heap_.empty() && ratio < heap_.front().ratio) {
      // Stale: the refreshed key is no longer the maximum.
      heap_.push_back(Candidate{ratio, top.server, top.item});
      std::push_heap(heap_.begin(), heap_.end());
      continue;
    }
    evaluator.commit(top.server, top.item);
    result.delivery.place(top.server, top.item);
    ++result.placements;
  }
  record_plan_telemetry(instance, evaluator, result);
  return result;
}

}  // namespace idde::core
