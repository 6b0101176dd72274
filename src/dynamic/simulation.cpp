#include "dynamic/simulation.hpp"

#include <algorithm>

#include "core/delivery.hpp"
#include "core/greedy_delivery.hpp"
#include "core/idde_g.hpp"
#include "core/metrics.hpp"
#include "core/resolver.hpp"
#include "util/assert.hpp"

namespace idde::dynamic {

namespace {

/// R_avg over the online users only (offline users neither transmit nor
/// count toward the average).
double masked_rate(const model::ProblemInstance& instance,
                   const core::AllocationProfile& allocation,
                   const std::vector<bool>& online) {
  const auto rates = core::user_rates(instance, allocation);
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t j = 0; j < rates.size(); ++j) {
    if (!online[j]) continue;
    sum += rates[j];
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

/// L_avg over the online users' requests only.
double masked_latency_ms(const model::ProblemInstance& instance,
                         const core::AllocationProfile& allocation,
                         const std::vector<bool>& online,
                         const core::DeliveryProfile& placements) {
  core::Eq8Resolver resolver(instance);
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t j = 0; j < instance.user_count(); ++j) {
    if (!online[j]) continue;
    // Eq. 8; an unallocated user has no edge path.
    const std::size_t serving = allocation[j].allocated()
                                    ? allocation[j].server
                                    : core::ChannelSlot::kNone;
    for (const std::size_t k : instance.requests().items_of(j)) {
      total += resolver
                   .estimate({.hosts = placements.hosts(k),
                              .serving = serving,
                              .item_mb = instance.data(k).size_mb,
                              .fragment_mb = placements.placement_mb(k),
                              .k = placements.shape().k})
                   .seconds;
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count) * 1e3;
}

}  // namespace

DynamicSimulation::DynamicSimulation(DynamicParams params, std::uint64_t seed)
    : params_(std::move(params)), seed_(seed) {
  IDDE_EXPECTS(params_.step_seconds > 0.0);
  IDDE_EXPECTS(params_.steps > 0);
}

DynamicSummary DynamicSimulation::run() {
  // The one live world: users move inside it, and everything else stays
  // as built. Solvers and profiles see it only between updates.
  model::ProblemInstance world = model::make_instance(params_.base, seed_);
  const radio::PathLossModel pathloss(params_.base.pathloss_eta,
                                      params_.base.pathloss_exponent);
  const geo::BoundingBox bounds =
      geo::BoundingBox::square(params_.base.eua.area_side_m);

  util::Rng rng(seed_ ^ 0xd15ab1edULL);
  util::Rng walk_rng = rng.fork(1);
  util::Rng solve_rng = rng.fork(2);

  RandomWaypointModel mobility(user_positions(world), bounds,
                               params_.mobility, walk_rng);
  util::Rng churn_rng = rng.fork(3);
  ChurnProcess churn(world.user_count(),
                     params_.churn_enabled ? params_.churn : ChurnParams{},
                     churn_rng);

  // t = 0: initial solve on the world as built.
  core::IddeG solver;
  core::Strategy standing = solver.solve(world, solve_rng);
  core::AllocationProfile allocation = std::move(standing.allocation);
  core::DeliveryProfile placements = std::move(standing.delivery);

  DynamicSummary summary;
  summary.total_resolves = 1;

  for (std::size_t step = 1; step <= params_.steps; ++step) {
    mobility.step(params_.step_seconds, walk_rng);
    world.set_user_positions(mobility.positions(), pathloss);

    StepRecord record;
    record.time_s = static_cast<double>(step) * params_.step_seconds;

    if (params_.churn_enabled) {
      record.churn_events = churn.step(params_.step_seconds, churn_rng);
      // Departed users release their channel immediately.
      for (std::size_t j = 0; j < allocation.size(); ++j) {
        if (!churn.online(j) && allocation[j].allocated()) {
          allocation[j] = core::kUnallocated;
        }
      }
    }
    record.online_users = params_.churn_enabled ? churn.online_count()
                                                : world.user_count();

    // Drop users who walked out of their serving server's coverage.
    for (std::size_t j = 0; j < allocation.size(); ++j) {
      if (!allocation[j].allocated()) continue;
      const auto& covering = world.covering_servers(j);
      if (!std::binary_search(covering.begin(), covering.end(),
                              allocation[j].server)) {
        allocation[j] = core::kUnallocated;
        ++record.dropped_users;
      }
    }

    const bool resolve_now =
        params_.resolve_period > 0 && step % params_.resolve_period == 0;
    if (resolve_now) {
      record.resolved = true;
      ++summary.total_resolves;

      core::GameOptions game_options;
      game_options.max_rounds =
          std::max<std::size_t>(1000, world.user_count() * 200);
      // Offline users must not be (re)allocated: give them no candidates.
      std::vector<std::vector<std::size_t>> candidates;
      if (params_.churn_enabled) {
        candidates.resize(world.user_count());
        for (std::size_t j = 0; j < world.user_count(); ++j) {
          if (churn.online(j)) candidates[j] = world.covering_servers(j);
        }
        game_options.candidate_servers = &candidates;
      }
      core::IddeUGame game(world, game_options);
      const core::AllocationProfile before = allocation;
      core::GameResult result =
          params_.warm_start
              ? game.run_from(allocation)
              : game.run();
      record.game_moves = result.moves;
      for (std::size_t j = 0; j < allocation.size(); ++j) {
        const bool was = before[j].allocated();
        const bool now = result.allocation[j].allocated();
        if (was != now ||
            (was && now && before[j].server != result.allocation[j].server)) {
          ++record.handovers;
        }
      }
      summary.total_handovers += record.handovers;
      allocation = std::move(result.allocation);

      // Re-plan delivery and pay the migration.
      core::GreedyDeliveryPlanner planner(world);
      core::DeliveryProfile next = planner.plan(allocation).delivery;
      const MigrationPlan migration =
          plan_migration(world, placements, next);
      record.migration_mb = migration.total_mb;
      summary.total_migration_mb += migration.total_mb;
      placements = std::move(next);
    }

    if (params_.churn_enabled) {
      record.rate_mbps = masked_rate(world, allocation, churn.mask());
      record.latency_ms =
          masked_latency_ms(world, allocation, churn.mask(), placements);
    } else {
      record.rate_mbps = core::average_data_rate_mbps(world, allocation);
      record.latency_ms =
          core::average_latency_ms(world, allocation, placements);
    }
    summary.steps.push_back(record);
  }

  for (const StepRecord& record : summary.steps) {
    summary.mean_rate_mbps += record.rate_mbps;
    summary.mean_latency_ms += record.latency_ms;
  }
  const auto n = static_cast<double>(summary.steps.size());
  summary.mean_rate_mbps /= n;
  summary.mean_latency_ms /= n;
  summary.total_distance_m = mobility.total_distance_m();
  return summary;
}

}  // namespace idde::dynamic
