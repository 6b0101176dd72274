#include "oracles/naive_greedy.hpp"

#include "core/delivery.hpp"

namespace idde::oracle {

namespace {

constexpr double kMinGain = 1e-12;  // "no feasible improving decision"

}  // namespace

core::GreedyDeliveryResult naive_greedy_plan(
    const model::ProblemInstance& instance,
    const core::AllocationProfile& allocation) {
  core::GreedyDeliveryResult result{core::DeliveryProfile(instance), 0, 0};
  core::DeliveryEvaluator evaluator(instance, allocation);

  for (;;) {
    double best_ratio = 0.0;
    std::size_t best_server = 0;
    std::size_t best_item = 0;
    bool found = false;
    for (std::size_t i = 0; i < instance.server_count(); ++i) {
      for (std::size_t k = 0; k < instance.data_count(); ++k) {
        if (!result.delivery.can_place(i, k)) continue;
        const double gain = evaluator.gain_seconds(i, k);
        ++result.gain_evaluations;
        if (gain <= kMinGain) continue;
        const double ratio = gain / instance.data(k).size_mb;
        if (!found || ratio > best_ratio) {
          best_ratio = ratio;
          best_server = i;
          best_item = k;
          found = true;
        }
      }
    }
    if (!found) break;
    evaluator.commit(best_server, best_item);
    result.delivery.place(best_server, best_item);
    ++result.placements;
  }
  return result;
}

}  // namespace idde::oracle
