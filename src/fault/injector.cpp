#include "fault/injector.hpp"

#include <utility>

#include "core/metrics.hpp"
#include "core/repair_planner.hpp"
#include "fault/resilience.hpp"
#include "obs/obs.hpp"

namespace idde::fault {

FaultInjector::FaultInjector(const model::ProblemInstance& instance,
                             const FaultPlan& plan)
    : plan_(&plan), starts_(plan.epoch_starts()) {
  const net::Graph& base = instance.graph();
  const std::size_t n = instance.server_count();
  // Base edges once, in adjacency order (parallel edges kept): an epoch is
  // an on/off bit per base edge, and its graph lists the on edges in this
  // order.
  std::vector<net::Edge> base_edges;
  base_edges.reserve(base.edge_count());
  for (std::size_t a = 0; a < n; ++a) {
    for (const net::Neighbor& nb : base.neighbors(a)) {
      if (a < nb.node) base_edges.push_back(net::Edge{a, nb.node, nb.weight});
    }
  }
  // Every epoch graph is a subgraph of the base, so the base's weights
  // decide the repair precondition for all of them.
  const bool repairable = net::absorption_free(base);

  std::vector<std::uint8_t> on(base_edges.size(), 0);
  std::vector<std::uint8_t> was_on(base_edges.size(), 0);
  std::vector<net::Edge> edges;
  std::vector<net::Edge> removed;
  std::vector<net::Edge> added;
  edges.reserve(base_edges.size());
  removed.reserve(base_edges.size());
  added.reserve(base_edges.size());
  net::RepairScratch scratch;
  std::size_t rows_repaired = 0;
  std::size_t rows_built = 0;
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
    // A crashed server is just its incident edges going off.
    edges.clear();
    removed.clear();
    added.clear();
    for (std::size_t b = 0; b < base_edges.size(); ++b) {
      const net::Edge& edge = base_edges[b];
      on[b] = up[edge.from] && up[edge.to] &&
              plan.link_up(edge.from, edge.to, start);
      if (on[b]) edges.push_back(edge);
      if (on[b] && !was_on[b]) added.push_back(edge);
      if (!on[b] && was_on[b]) removed.push_back(edge);
    }
    const bool all_up = all_servers_up && edges.size() == base_edges.size();
    net::Graph graph(n, edges);
    // Epoch 0, and every epoch of a graph the repair cannot take, is built
    // from scratch.
    const bool repair = e > 0 && repairable;
    net::CostMatrix costs =
        repair ? net::CostMatrix::repaired(epochs_.back().costs, graph,
                                           {removed, added}, scratch,
                                           rows_repaired)
               : net::CostMatrix(graph);
    if (!repair) rows_built += n;
    epochs_.push_back(AvailabilitySnapshot{start, end, std::move(up), all_up,
                                           std::move(graph),
                                           std::move(costs)});
    on.swap(was_on);
  }
  IDDE_OBS_COUNT("fault.injector_epochs_total", epochs_.size());
  IDDE_OBS_COUNT("fault.injector_rows_repaired_total", rows_repaired);
  IDDE_OBS_COUNT("fault.injector_rows_built_total", rows_built);
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
