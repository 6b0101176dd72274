// The analytic resilience epoch walk behind fault::evaluate_resilience
// (replication) and coding::evaluate_coded_resilience (k-of-n coding).
// Every epoch of the fault plan resolves every request through
// core::Eq8Resolver over the epoch's surviving hosts (optionally re-healed
// by the strategy's repair planner), and the results are weighted by epoch
// length over [0, horizon). An inert plan short-circuits to the fault-free
// metrics exactly.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "core/resolver.hpp"
#include "core/strategy.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "model/instance.hpp"
#include "util/assert.hpp"

namespace idde::fault {

/// `Strategy` is core::Strategy or coding::CodedStrategy and `Planner` its
/// repair planner (core::RepairPlanner or coding::CodedRepairPlanner).
/// `fault_free_latency_ms` is the strategy's L_avg without faults, `k` the
/// fragments per request (1 = replication) and `fragment_mb(item)` the
/// size of one fragment of `item`.
template <class Planner, class Strategy, class FragmentMb>
[[nodiscard]] ResilienceReport walk_resilience(
    const model::ProblemInstance& instance, const Strategy& strategy,
    const FaultPlan& plan, RepairPolicy policy, double fault_free_latency_ms,
    std::size_t k, const FragmentMb& fragment_mb) {
  ResilienceReport report;
  report.fault_free_latency_ms = fault_free_latency_ms;
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
  using ReplicaLost = typename Planner::ReplicaLost;
  const ReplicaLost replica_lost =
      corruption ? ReplicaLost([&plan](std::size_t i, std::size_t item) {
                     return plan.replica_corrupted(i, item);
                   })
                 : ReplicaLost{};
  Planner repairer(instance);
  core::Eq8Resolver resolver(instance);
  const auto& requests = instance.requests();
  const std::size_t request_count = requests.total_requests();
  IDDE_EXPECTS(request_count > 0);

  double weighted_seconds = 0.0;
  std::array<double, core::kFallbackTiers> tier_weight{};
  std::vector<std::size_t> degraded_hosts;
  std::vector<std::size_t> reference_hosts;

  // Resolves every request of one epoch against `sigma`; a repaired sigma
  // already dropped its corrupt hosts (replica_lost above).
  const auto resolve_epoch = [&](const AvailabilitySnapshot& snap,
                                 double weight, const auto& sigma,
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
        for (const std::size_t host : strategy.delivery.hosts(item)) {
          if (!strategy.collaborative_delivery && host != serving) continue;
          reference_hosts.push_back(host);
        }
        const double item_mb = instance.data(item).size_mb;
        const core::Eq8Resolution resolution = resolver.resolve(
            {.hosts = degraded_hosts,
             .serving = serving,
             .item_mb = item_mb,
             .fragment_mb = fragment_mb(item),
             .k = k,
             .server_up = snap.server_up,
             .degraded_costs = &snap.costs,
             .fault_free_hosts = reference_hosts});
        weighted_seconds += weight * resolution.seconds;
        tier_weight[static_cast<std::size_t>(resolution.tier)] += weight;
      }
    }
  };

  const FaultInjector injector(instance, plan);
  for (std::size_t e = 0; e < injector.epoch_count(); ++e) {
    const AvailabilitySnapshot& snap = injector.epoch(e);
    const double weight = std::min(snap.end_s, horizon) - snap.start_s;
    if (weight <= 0.0) continue;
    ++report.epochs;
    if (policy == RepairPolicy::kGreedy && (!snap.all_up || corruption)) {
      const auto healed =
          repairer.replan(strategy.allocation, strategy.delivery,
                          snap.server_up, replica_lost,
                          strategy.collaborative_delivery);
      report.lost_placements += healed.lost_placements;
      report.repair_placements += healed.repair_placements;
      resolve_epoch(snap, weight, healed.delivery, true);
    } else {
      resolve_epoch(snap, weight, strategy.delivery, false);
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
