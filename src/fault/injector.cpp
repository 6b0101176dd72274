#include "fault/injector.hpp"

#include "core/metrics.hpp"
#include "core/repair_planner.hpp"
#include "fault/resilience.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace idde::fault {

FaultInjector::FaultInjector(const model::ProblemInstance& instance,
                             const FaultPlan& plan)
    : plan_(&plan),
      starts_(plan.epoch_starts()),
      repairable_(net::absorption_free(instance.graph())),
      // The base graph's storage has room for every epoch's subgraph.
      live_{.server_up = {}, .graph = instance.graph(), .costs = {}} {
  const net::Graph& base = instance.graph();
  const std::size_t n = instance.server_count();
  base_edges_.reserve(base.edge_count());
  for (std::size_t a = 0; a < n; ++a) {
    for (const net::Neighbor& nb : base.neighbors(a)) {
      if (a < nb.node) base_edges_.push_back(net::Edge{a, nb.node, nb.weight});
    }
  }
  live_.server_up.resize(n);
  on_.assign(base_edges_.size(), 0);
  was_on_.assign(base_edges_.size(), 0);
  edges_.reserve(base_edges_.size());
  removed_.reserve(base_edges_.size());
  added_.reserve(base_edges_.size());
  load(0);
}

const AvailabilitySnapshot& FaultInjector::epoch(std::size_t e) {
  IDDE_EXPECTS(e >= current_ && e < starts_.size());
  while (current_ < e) load(++current_);
  return live_;
}

void FaultInjector::load(std::size_t e) {
  const FaultPlan& plan = *plan_;
  const double start = starts_[e];
  live_.start_s = start;
  live_.end_s = e + 1 < starts_.size() ? starts_[e + 1] : kNeverChanges;
  // Sample availability just inside the epoch: intervals are half-open,
  // so the state at `start` itself is the epoch's state throughout.
  std::vector<std::uint8_t>& up = live_.server_up;
  bool all_servers_up = true;
  for (std::size_t i = 0; i < up.size(); ++i) {
    up[i] = plan.server_up(i, start) ? 1 : 0;
    all_servers_up = all_servers_up && up[i] != 0;
  }
  // A crashed server is just its incident edges going off.
  edges_.clear();
  removed_.clear();
  added_.clear();
  for (std::size_t b = 0; b < base_edges_.size(); ++b) {
    const net::Edge& edge = base_edges_[b];
    on_[b] = up[edge.from] && up[edge.to] &&
             plan.link_up(edge.from, edge.to, start);
    if (on_[b]) edges_.push_back(edge);
    if (on_[b] && !was_on_[b]) added_.push_back(edge);
    if (!on_[b] && was_on_[b]) removed_.push_back(edge);
  }
  live_.all_up = all_servers_up && edges_.size() == base_edges_.size();
  live_.graph.assign(edges_);
  // Epoch 0, and every epoch of a graph the repair cannot take, is built
  // from scratch.
  std::size_t rows_repaired = 0;
  if (e > 0 && repairable_) {
    live_.costs.repair(live_.graph, {removed_, added_}, scratch_,
                       rows_repaired);
  } else {
    live_.costs.rebuild(live_.graph, scratch_.dijkstra);
    IDDE_OBS_COUNT("fault.injector_rows_built_total", up.size());
  }
  on_.swap(was_on_);
  IDDE_OBS_COUNT("fault.injector_epochs_total", 1);
  IDDE_OBS_COUNT("fault.injector_rows_repaired_total", rows_repaired);
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
