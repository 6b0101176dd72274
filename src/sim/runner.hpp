// Runs one approach on one instance, timing it and validating the result —
// the unit of work every experiment is built from.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/approach.hpp"
#include "core/metrics.hpp"
#include "model/instance.hpp"
#include "util/random.hpp"

namespace idde::sim {

struct RunRecord {
  std::string approach;
  core::StrategyMetrics metrics;
  double solve_ms = 0.0;       ///< the Fig. 7 computation-time metric
  bool strategy_valid = true;  ///< validate_strategy found no violations
  std::size_t game_rounds = 0;
  std::size_t game_moves = 0;
};

/// Solves, times and evaluates. Aborts in tests if the strategy violates
/// feasibility when `require_valid` is set. `strategy_out`, when non-null,
/// receives the solved strategy (for downstream evaluation such as DES
/// replay or resilience scoring) without re-solving.
[[nodiscard]] RunRecord run_approach(
    const model::ProblemInstance& instance, const core::Approach& approach,
    util::Rng& rng, bool require_valid = false,
    std::optional<core::Strategy>* strategy_out = nullptr);

/// The paper's five approaches (Section 4.1) in presentation order:
/// IDDE-IP, IDDE-G, SAA, CDP, DUP-G. `ip_budget_ms` caps the anytime
/// solver; a program that honours IDDE_IP_BUDGET_MS passes
/// util::ip_budget_ms(<default>) here. `game_threads` is forwarded
/// to GameOptions::threads of the game-based approaches (IDDE-G, DUP-G):
/// 1 = serial, 0 = hardware concurrency. Leave at 1 when repetitions are
/// already fanned out over a pool (see sim::run_sweep) to avoid
/// oversubscription.
[[nodiscard]] std::vector<core::ApproachPtr> make_paper_approaches(
    double ip_budget_ms = 200.0, std::size_t game_threads = 1);

}  // namespace idde::sim
