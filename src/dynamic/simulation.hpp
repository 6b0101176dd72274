// Time-stepped IDDE under user mobility — the paper's future-work scenario.
//
// Each step the users walk (random waypoint), channel gains and coverage
// are recomputed, and the standing strategy keeps serving: users who walk
// out of their serving server's coverage are dropped to the cloud, rates
// degrade as distances grow. Every `resolve_period` steps the system
// re-runs IDDE-G — optionally warm-started from the standing allocation —
// and pays for the replica moves through the migration planner.
//
// The re-solve period is the central trade-off: frequent re-solves keep
// R_avg/L_avg near the static optimum but generate migration traffic and
// handovers; bench/ext_mobility sweeps it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/game.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/migration.hpp"
#include "dynamic/mobility.hpp"
#include "model/instance_builder.hpp"

namespace idde::dynamic {

struct DynamicParams {
  model::InstanceParams base;     ///< static world (servers, storage, ...)
  double step_seconds = 1.0;
  std::size_t steps = 120;
  /// Re-run IDDE-G every this many steps; 0 = solve once at t=0 only.
  std::size_t resolve_period = 30;
  MobilityParams mobility;
  /// Warm-start the game from the standing allocation (vs from scratch).
  bool warm_start = true;
  /// Session churn (users going on/offline). Disabled by default; when
  /// enabled, metrics are computed over online users only and arrivals
  /// wait for the next resolve to be allocated (serving from the cloud in
  /// the meantime).
  bool churn_enabled = false;
  ChurnParams churn;
};

struct StepRecord {
  double time_s = 0.0;
  double rate_mbps = 0.0;      ///< R_avg under the standing strategy
  double latency_ms = 0.0;     ///< L_avg under the standing strategy
  std::size_t dropped_users = 0;  ///< users outside their server's coverage
  bool resolved = false;
  std::size_t handovers = 0;      ///< users whose server changed (resolve)
  double migration_mb = 0.0;      ///< replica traffic paid at this resolve
  std::size_t game_moves = 0;     ///< best-response moves (resolve only)
  std::size_t online_users = 0;   ///< churn: users online this step
  std::size_t churn_events = 0;   ///< churn: arrivals + departures
};

struct DynamicSummary {
  std::vector<StepRecord> steps;
  double mean_rate_mbps = 0.0;
  double mean_latency_ms = 0.0;
  std::size_t total_handovers = 0;
  std::size_t total_resolves = 0;
  double total_migration_mb = 0.0;
  double total_distance_m = 0.0;  ///< walked by all users
};

class DynamicSimulation {
 public:
  DynamicSimulation(DynamicParams params, std::uint64_t seed);

  /// Runs the full horizon and returns the per-step trace + aggregates.
  [[nodiscard]] DynamicSummary run();

 private:
  DynamicParams params_;
  std::uint64_t seed_;
};

}  // namespace idde::dynamic
