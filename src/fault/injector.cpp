#include "fault/injector.hpp"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "core/greedy_delivery.hpp"
#include "core/metrics.hpp"
#include "core/resolver.hpp"
#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace idde::fault {

namespace {

/// Fills a CSR over `rows` rows from (row, value) pairs; each row's values
/// come out ascending and unique.
void build_csr(std::vector<std::pair<std::size_t, std::size_t>>& pairs,
               std::size_t rows, std::vector<std::size_t>& offset,
               std::vector<std::size_t>& values) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  offset.assign(rows + 1, 0);
  values.clear();
  values.reserve(pairs.size());
  for (const auto& [row, value] : pairs) {
    ++offset[row + 1];
    values.push_back(value);
  }
  for (std::size_t r = 0; r < rows; ++r) offset[r + 1] += offset[r];
}

}  // namespace

FaultInjector::FaultInjector(const model::ProblemInstance& instance,
                             const FaultPlan& plan)
    : plan_(&plan),
      starts_(plan.epoch_starts()),
      repairable_(net::absorption_free(instance.graph())),
      // Epoch 0 steps from the fault-free world: the base graph, whose
      // storage has room for every epoch's subgraph, and its matrix.
      live_{.server_up = {}, .graph = instance.graph(), .costs = {}} {
  const net::Graph& base = instance.graph();
  const std::size_t n = instance.server_count();
  // Base edges leaving a (a < b) are [first_edge[a], first_edge[a + 1]).
  std::vector<std::size_t> first_edge(n + 1, 0);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(2 * base.edge_count());
  base_edges_.reserve(base.edge_count());
  for (std::size_t a = 0; a < n; ++a) {
    for (const net::Neighbor& nb : base.neighbors(a)) {
      if (a >= nb.node) continue;
      pairs.emplace_back(a, base_edges_.size());
      pairs.emplace_back(nb.node, base_edges_.size());
      base_edges_.push_back(net::Edge{a, nb.node, nb.weight});
    }
    first_edge[a + 1] = base_edges_.size();
  }
  build_csr(pairs, n, incident_offset_, incident_);

  // Every downtime endpoint is an epoch start (0.0, or an edge change).
  const auto epoch_at = [this](double t) {
    return static_cast<std::size_t>(
        std::lower_bound(starts_.begin(), starts_.end(), t) -
        starts_.begin());
  };
  pairs.clear();
  const std::vector<std::vector<Interval>>& server_down =
      plan.server_downtime();
  for (std::size_t s = 0; s < std::min(n, server_down.size()); ++s) {
    for (const Interval& iv : server_down[s]) {
      pairs.emplace_back(epoch_at(iv.start_s), s);
      pairs.emplace_back(epoch_at(iv.end_s), s);
    }
  }
  build_csr(pairs, starts_.size(), server_offset_, servers_at_);
  pairs.clear();
  for (const auto& [key, intervals] : plan.link_downtime()) {
    if (key.second >= n) continue;
    // A link is every parallel base edge between its endpoints.
    for (std::size_t b = first_edge[key.first]; b < first_edge[key.first + 1];
         ++b) {
      if (base_edges_[b].to != key.second) continue;
      for (const Interval& iv : intervals) {
        pairs.emplace_back(epoch_at(iv.start_s), b);
        pairs.emplace_back(epoch_at(iv.end_s), b);
      }
    }
  }
  build_csr(pairs, starts_.size(), link_offset_, link_edges_at_);

  live_.server_up.assign(n, 1);
  on_.assign(base_edges_.size(), 1);
  // An edge is re-queried at most once per link and once per endpoint.
  touched_.reserve(3 * base_edges_.size());
  edges_.reserve(base_edges_.size());
  removed_.reserve(base_edges_.size());
  added_.reserve(base_edges_.size());
  // A repair's heap holds one entry per strict decrease: at most one seed
  // per node and two per added edge, then two per edge relaxed by a
  // settled node. The fresh sweep needs less.
  scratch_.dijkstra.heap.reserve(n + 4 * base_edges_.size());
  if (repairable_) live_.costs = instance.latency().costs();
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
  touched_.clear();
  for (std::size_t k = server_offset_[e]; k < server_offset_[e + 1]; ++k) {
    const std::size_t s = servers_at_[k];
    const std::uint8_t now_up = plan.server_up(s, start) ? 1 : 0;
    if (now_up == up[s]) continue;
    up[s] = now_up;
    // A crashed server is just its incident edges going off.
    touched_.insert(touched_.end(), incident_.begin() + incident_offset_[s],
                    incident_.begin() + incident_offset_[s + 1]);
  }
  touched_.insert(touched_.end(), link_edges_at_.begin() + link_offset_[e],
                  link_edges_at_.begin() + link_offset_[e + 1]);
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  removed_.clear();
  added_.clear();
  for (const std::size_t b : touched_) {
    const net::Edge& edge = base_edges_[b];
    const bool on = up[edge.from] != 0 && up[edge.to] != 0 &&
                    plan.link_up(edge.from, edge.to, start);
    if (on == (on_[b] != 0)) continue;
    on_[b] = on ? 1 : 0;
    (on ? added_ : removed_).push_back(edge);
  }
  edges_.clear();
  for (std::size_t b = 0; b < base_edges_.size(); ++b) {
    if (on_[b] != 0) edges_.push_back(base_edges_[b]);
  }
  live_.all_up = edges_.size() == base_edges_.size() &&
                 std::find(up.begin(), up.end(), 0) == up.end();
  live_.graph.assign(edges_);
  // Every epoch of a graph the repair cannot take is built from scratch.
  std::size_t rows_repaired = 0;
  if (repairable_) {
    live_.costs.repair(live_.graph, {removed_, added_}, scratch_,
                       rows_repaired);
  } else {
    live_.costs.rebuild(live_.graph, scratch_.dijkstra);
    IDDE_OBS_COUNT("fault.injector_rows_built_total", up.size());
  }
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
  const core::DeliveryProfile& delivery = strategy.delivery;
  ResilienceReport report;
  report.fault_free_latency_ms = core::average_latency_ms(
      instance, strategy.allocation, delivery,
      strategy.collaborative_delivery);
  if (plan.inert()) {
    // Zero-cost-when-disabled contract: identical numbers, no injector.
    report.degraded_latency_ms = report.fault_free_latency_ms;
    report.availability = 1.0;
    report.tier_fraction = {1.0, 0.0, 0.0};
    report.epochs = 1;
    return report;
  }

  const double horizon = plan.horizon_s();
  IDDE_EXPECTS(horizon > 0.0);
  const bool corruption = plan.replica_corruption_prob() > 0.0;
  const core::ReplicaLost replica_lost =
      corruption
          ? core::ReplicaLost([&plan](std::size_t i, std::size_t item) {
              return plan.replica_corrupted(i, item);
            })
          : core::ReplicaLost{};
  core::GreedyDeliveryPlanner repairer(instance);
  core::Eq8Resolver resolver(instance);
  const auto& requests = instance.requests();
  const std::size_t request_count = requests.total_requests();
  IDDE_EXPECTS(request_count > 0);

  double weighted_seconds = 0.0;
  std::array<double, core::kFallbackTiers> tier_weight{};
  // An item has at most one host per server.
  std::vector<std::size_t> degraded_hosts;
  std::vector<std::size_t> reference_hosts;
  degraded_hosts.reserve(instance.server_count());
  reference_hosts.reserve(instance.server_count());

  // Resolves every request of one epoch against `sigma`; a repaired sigma
  // already dropped its corrupt hosts (replica_lost above).
  const auto resolve_epoch = [&](const AvailabilitySnapshot& snap,
                                 double weight,
                                 const core::DeliveryProfile& sigma,
                                 bool repaired) {
    for (std::size_t j = 0; j < instance.user_count(); ++j) {
      const core::ChannelSlot slot = strategy.allocation[j];
      const std::size_t serving =
          slot.allocated() ? slot.server : core::ChannelSlot::kNone;
      for (const std::size_t item : requests.items_of(j)) {
        degraded_hosts.clear();
        for (const std::size_t host : sigma.hosts(item)) {
          if (!strategy.collaborative_delivery && host != serving) continue;
          // Corrupt hosts are unreadable even on a live server.
          if (!repaired && corruption && plan.replica_corrupted(host, item)) {
            continue;
          }
          degraded_hosts.push_back(host);
        }
        // The tier reference is always the *original* sigma in the
        // fault-free world, even when a repair swapped hosts in.
        reference_hosts.clear();
        for (const std::size_t host : delivery.hosts(item)) {
          if (!strategy.collaborative_delivery && host != serving) continue;
          reference_hosts.push_back(host);
        }
        const double item_mb = instance.data(item).size_mb;
        const core::Eq8Resolution resolution = resolver.resolve(
            {.hosts = degraded_hosts,
             .serving = serving,
             .item_mb = item_mb,
             .fragment_mb = delivery.placement_mb(item),
             .k = delivery.shape().k,
             .server_up = snap.server_up,
             .degraded_costs = &snap.costs,
             .fault_free_hosts = reference_hosts});
        weighted_seconds += weight * resolution.seconds;
        tier_weight[static_cast<std::size_t>(resolution.tier)] += weight;
      }
    }
  };

  FaultInjector injector(instance, plan);
  for (std::size_t e = 0; e < injector.epoch_count(); ++e) {
    const AvailabilitySnapshot& snap = injector.epoch(e);
    const double weight = std::min(snap.end_s, horizon) - snap.start_s;
    if (weight <= 0.0) continue;
    ++report.epochs;
    if (policy == RepairPolicy::kGreedy && (!snap.all_up || corruption)) {
      const auto healed =
          repairer.replan(strategy.allocation, delivery, snap.server_up,
                          replica_lost, strategy.collaborative_delivery);
      report.lost_placements += healed.lost_placements;
      report.repair_placements += healed.repair_placements;
      resolve_epoch(snap, weight, healed.delivery, true);
    } else {
      resolve_epoch(snap, weight, delivery, false);
    }
  }

  const double total_mass = horizon * static_cast<double>(request_count);
  report.degraded_latency_ms = weighted_seconds / total_mass * 1e3;
  for (std::size_t t = 0; t < tier_weight.size(); ++t) {
    report.tier_fraction[t] = tier_weight[t] / total_mass;
  }
  report.availability = report.tier_fraction[0];
  return report;
}

}  // namespace idde::fault
