#include "solver/joint_search.hpp"

#include <algorithm>

#include "core/delivery.hpp"
#include "core/metrics.hpp"
#include "solver/placement_bnb.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace idde::solver {

namespace {

using core::AllocationProfile;
using core::ChannelSlot;

/// Fraction of the budget spent on the allocation objective; the rest
/// goes to placement.
constexpr double kAllocationShare = 0.5;

/// One probe: a uniformly random feasible assignment — every covered user
/// gets a random covering server and channel. This mirrors a CP search
/// diving without a domain-specific value heuristic: incumbents are
/// feasible-and-scored, not locally optimised, which is why the original
/// IDDE-IP trails IDDE-G on data rate despite its generous budget.
AllocationProfile construct_allocation(const model::ProblemInstance& instance,
                                       util::Rng& rng) {
  const std::size_t m = instance.user_count();
  const std::size_t channels = instance.radio_env().channels_per_server;
  AllocationProfile profile(m, core::kUnallocated);
  for (std::size_t j = 0; j < m; ++j) {
    const auto& covering = instance.covering_servers(j);
    if (covering.empty()) continue;
    profile[j] = ChannelSlot{covering[rng.index(covering.size())],
                             rng.index(channels)};
  }
  return profile;
}

}  // namespace

JointSearchResult joint_search(const model::ProblemInstance& instance,
                               util::Rng& rng,
                               const JointSearchOptions& options) {
  IDDE_EXPECTS(options.budget_ms > 0.0);

  // --- Objective #1: allocation probes under the first budget share. ---
  const util::Deadline allocation_deadline(options.budget_ms *
                                           kAllocationShare);
  AllocationProfile best_allocation;
  double best_rate = -1.0;
  std::size_t probes = 0;
  do {
    AllocationProfile candidate = construct_allocation(instance, rng);
    const double rate = core::average_data_rate_mbps(instance, candidate);
    ++probes;
    if (rate > best_rate) {
      best_rate = rate;
      best_allocation = std::move(candidate);
    }
  } while (!allocation_deadline.expired());

  // --- Objective #2: placement branch-and-bound with the remainder. ---
  const util::Deadline placement_deadline(
      options.budget_ms * (1.0 - kAllocationShare));
  PlacementSearchResult placement =
      placement_branch_and_bound(instance, best_allocation,
                                 placement_deadline);

  core::Strategy strategy{std::move(best_allocation),
                          std::move(placement.delivery)};
  strategy.approach_name = "IDDE-IP";
  strategy.placements = strategy.delivery.placement_count();
  return JointSearchResult{
      .strategy = std::move(strategy),
      .allocation_probes = probes,
      .placement_nodes = placement.nodes_explored,
      .placement_proven_optimal = placement.proven_optimal,
  };
}

}  // namespace idde::solver
