#include "fault/injector.hpp"

#include <utility>

#include "core/metrics.hpp"
#include "core/repair_planner.hpp"
#include "fault/resilience.hpp"

namespace idde::fault {

FaultInjector::FaultInjector(const model::ProblemInstance& instance,
                             const FaultPlan& plan)
    : plan_(&plan), starts_(plan.epoch_starts()) {

  const net::Graph& base = instance.graph();
  const std::size_t n = instance.server_count();
  std::size_t base_edges = 0;
  for (std::size_t a = 0; a < n; ++a) {
    for (const net::Neighbor& nb : base.neighbors(a)) {
      if (a < nb.node) ++base_edges;
    }
  }

  epochs_.reserve(starts_.size());
  for (std::size_t e = 0; e < starts_.size(); ++e) {
    const double start = starts_[e];
    const double end =
        e + 1 < starts_.size() ? starts_[e + 1] : kNeverChanges;
    // Sample availability just inside the epoch: intervals are half-open,
    // so the state at `start` itself is the epoch's state throughout.
    std::vector<std::uint8_t> up(n, 1);
    bool all_servers_up = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!plan.server_up(i, start)) {
        up[i] = 0;
        all_servers_up = false;
      }
    }
    std::vector<net::Edge> edges;
    for (std::size_t a = 0; a < n; ++a) {
      for (const net::Neighbor& nb : base.neighbors(a)) {
        if (a >= nb.node) continue;
        if (up[a] && up[nb.node] && plan.link_up(a, nb.node, start)) {
          edges.push_back(net::Edge{a, nb.node, nb.weight});
        }
      }
    }
    const bool all_up = all_servers_up && edges.size() == base_edges;
    net::Graph graph(n, edges);
    net::CostMatrix costs(graph);
    epochs_.push_back(AvailabilitySnapshot{start, end, std::move(up), all_up,
                                           std::move(graph),
                                           std::move(costs)});
  }
}

std::size_t FaultInjector::epoch_index(double t) const {
  // Delegates to the plan's shared epoch timeline (satellite: injector and
  // serve controller must agree on boundaries by construction).
  return plan_->epoch_index_at(t);
}

ResilienceReport evaluate_resilience(const model::ProblemInstance& instance,
                                     const core::Strategy& strategy,
                                     const FaultPlan& plan,
                                     RepairPolicy policy) {
  return walk_resilience<core::RepairPlanner>(
      instance, strategy, plan, policy,
      core::average_latency_ms(instance, strategy.allocation,
                               strategy.delivery,
                               strategy.collaborative_delivery),
      1, [&instance](std::size_t item) { return instance.data(item).size_mb; });
}

}  // namespace idde::fault
