#include "core/idde_g.hpp"

namespace idde::core {

Strategy IddeG::solve(const model::ProblemInstance& instance,
                      util::Rng& /*rng*/) const {
  // Phase 1: IDDE-U game -> Nash equilibrium allocation.
  GameOptions game_options = options_.game;
  // Size the safety cap from the instance: with kBestImprovement one user
  // moves per round and empirical trajectories stay well under 30 moves
  // per user; the cap only exists to bound pathological inputs.
  game_options.max_rounds =
      std::max<std::size_t>(1000, instance.user_count() * 200);
  IddeUGame game(instance, game_options);
  GameResult game_result = game.run();

  // Phase 2: ratio-greedy delivery on the equilibrium allocation.
  GreedyDeliveryPlanner planner(instance);
  GreedyDeliveryResult delivery_result = planner.plan(game_result.allocation);

  Strategy strategy{std::move(game_result.allocation),
                    std::move(delivery_result.delivery)};
  strategy.approach_name = name();
  strategy.game_rounds = game_result.rounds;
  strategy.game_moves = game_result.moves;
  strategy.game_converged = game_result.converged;
  strategy.placements = delivery_result.placements;
  return strategy;
}

}  // namespace idde::core
