// Configuration of the online serving controller (serve::ServeController).
//
// The controller keeps an IDDE-U equilibrium and a delivery profile sigma
// continuously repaired while the world drifts under it — users walk and
// churn, servers crash and recover. Everything here is *deterministic
// budget* configuration: work is bounded in solver rounds and greedy
// placements (pure counts), never in wall-clock, so a run is a pure
// function of (config, seed) on any machine and bit-identical resume from
// a checkpoint is possible. Wall-clock appears only in bench reporting.
#pragma once

#include <cstddef>

#include "core/game.hpp"
#include "core/health.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/mobility.hpp"
#include "fault/degradation.hpp"
#include "fault/fault_plan.hpp"
#include "model/instance_builder.hpp"
#include "qos/config.hpp"

namespace idde::serve {

struct ServeConfig {
  /// Static world (servers, storage, catalogue, request matrix).
  model::InstanceParams base;
  /// Simulated seconds per tick; event times are tick * tick_seconds.
  double tick_seconds = 1.0;

  // Event sources.
  dynamic::MobilityParams mobility;
  bool churn_enabled = true;
  dynamic::ChurnParams churn;
  fault::FaultProfile faults;
  /// Gray-failure schedule (slow-not-dead servers). The controller feeds
  /// the per-tick latency multipliers into a core::HealthTracker; a
  /// server crossing the demotion threshold raises a kServerGray event
  /// with the same budgeted sigma repair a crash gets, and recovery
  /// raises kServerRecovered. Inert (the default) adds nothing: events,
  /// trajectory hash and checkpoints are bit-identical to pre-gray runs.
  fault::DegradationProfile degradation;
  /// Health-score parameters used when `degradation` is active.
  core::HealthConfig health;
  /// Every this many ticks a sigma-refresh event re-runs the budgeted
  /// delivery heal even without a fault, re-adapting sigma to the drifted
  /// geometry and churn population. 0 disables.
  std::size_t sigma_refresh_period_ticks = 0;

  /// Deterministic mass-failure injection for chaos/recovery studies: at
  /// `flash_failure_tick` the lowest-id floor(fraction * N) servers go
  /// down for `flash_failure_duration_ticks`. Applied on top of the
  /// generated fault plan; requires server_mtbf_s == 0 (the random and
  /// the injected schedules would otherwise collide). 0 = disabled.
  std::size_t flash_failure_tick = 0;
  double flash_failure_fraction = 0.0;
  std::size_t flash_failure_duration_ticks = 10;

  // Per-event repair budgets (Pillar 1). Hitting a budget leaves the
  // profile degraded-but-valid (partial best response is still a valid
  // allocation; sigma stays feasible) and enqueues a backlog continuation.
  // Best-improvement commits one move per round, so the round budget is a
  // move budget; re-equilibrating after a few ticks of mobility drift
  // takes a few hundred moves on paper-scale instances.
  std::size_t repair_rounds_per_event = 512;
  std::size_t repair_placements_per_event = 16;

  // Bounded backlog of repair continuations with deadline-aware shedding.
  std::size_t backlog_capacity = 64;
  std::size_t backlog_deadline_ticks = 20;
  std::size_t backlog_drain_per_tick = 2;
  /// Token-bucket budget for *re-enqueues* of repairs that failed again
  /// (each fresh event deposits `ratio` tokens); see qos::RetryBudget.
  qos::RetryBudgetConfig retry;

  // Convergence watchdog (Pillar 2). A non-converged repair whose applied
  // move count reaches `watchdog_suspect_moves` triggers an O(M^2)
  // potential check (core::potential); a suspect repair that *strictly
  // lowered* the potential is rolled back and counted as a strike. (The
  // heterogeneous-gain game is not an exact potential game, so honest
  // budget-capped repairs occasionally leave the potential flat — only
  // outright descent is treated as cycling.) `watchdog_strike_limit`
  // strikes trip the breaker: the last-known-good profile is restored
  // (sanitised against the live world) and repairs pause for
  // `watchdog_cooldown_ticks`, then re-open one probe at a time.
  std::size_t watchdog_suspect_moves = 384;
  std::size_t watchdog_strike_limit = 3;
  std::size_t watchdog_cooldown_ticks = 8;

  /// Update rule for repair solves. kBestImprovement for production;
  /// kCycleProbe lets a test inject a cycling rule and prove the watchdog
  /// contains it (Serve.WatchdogContainsCyclingRepairRule; no bench sets
  /// it).
  core::UpdateRule repair_rule = core::UpdateRule::kBestImprovement;
  /// Solver threads for repairs (see GameOptions::threads); the move
  /// sequence — and therefore the trajectory hash — is identical for
  /// every value.
  std::size_t solver_threads = 1;
};

}  // namespace idde::serve
