// Parameter sweeps with seeded repetitions — the paper runs every point 50
// times and reports means. Repetitions of a point are independent (fresh
// instance per seed) and run on the shared thread pool.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "fault/injector.hpp"
#include "model/instance_builder.hpp"
#include "sim/runner.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace idde::sim {

struct SweepPoint {
  std::string label;  ///< e.g. "N=25" — the x-axis tick
  model::InstanceParams params;
};

/// Aggregated result of one (point, approach) cell.
struct CellResult {
  std::string approach;
  util::Estimate rate_mbps;
  util::Estimate latency_ms;
  util::Estimate solve_ms;
  /// Resilience columns — populated (n > 0) only when
  /// SweepOptions::fault_profile is set and non-inert.
  util::Estimate degraded_latency_ms;
  util::Estimate availability;
  /// Coded columns — populated only when SweepOptions::coding is set.
  /// Each approach's allocation is re-planned by the greedy at the
  /// requested (n, k) shape; coded_degraded_latency_ms additionally requires a
  /// non-inert fault profile.
  util::Estimate coded_latency_ms;
  util::Estimate coded_degraded_latency_ms;
  util::Estimate coded_availability;
};

struct PointResult {
  std::string label;
  std::vector<CellResult> cells;  ///< one per approach, approach order
};

struct SweepOptions {
  int repetitions = 10;
  std::uint64_t base_seed = 42;
  /// Threads for parallel repetitions; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// GameOptions::threads for the game-based approaches built by
  /// run_paper_sweep (1 = serial, 0 = hardware). Repetitions already run
  /// in parallel, so raise this only for single-instance studies (set
  /// `threads = 1` alongside to keep the machine subscribed once).
  std::size_t game_threads = 1;
  /// IDDE-IP anytime budget for run_paper_sweep, milliseconds.
  double ip_budget_ms = 200.0;
  /// Optional fault profile (not owned; must outlive the sweep). When set
  /// and non-inert, each repetition draws a FaultPlan from the instance
  /// seed xor `fault_seed_offset` and every approach is additionally
  /// scored with fault::evaluate_resilience under `repair_policy`,
  /// filling CellResult::degraded_latency_ms / availability. Null (the
  /// default) leaves the sweep bit-identical to the pre-fault harness.
  const fault::FaultProfile* fault_profile = nullptr;
  std::uint64_t fault_seed_offset = 0x4a17;
  fault::RepairPolicy repair_policy = fault::RepairPolicy::kNone;
  /// Optional erasure-coding config (not owned; must outlive the sweep).
  /// When set, every cell additionally re-plans the approach's allocation
  /// with the greedy at this (n, k) shape and fills the coded_* columns
  /// (coded resilience when a fault profile is also active). Null (the
  /// default) leaves the sweep bit-identical to the replication harness.
  const core::FragmentConfig* coding = nullptr;
  /// Progress callback (invoked once per completed point, serialised).
  std::function<void(const PointResult&)> on_point;
};

/// Runs every approach on every point x repetition and aggregates.
/// Instances depend only on (point, repetition), so all approaches see
/// identical inputs — the paper's paired-comparison protocol.
[[nodiscard]] std::vector<PointResult> run_sweep(
    const std::vector<SweepPoint>& points,
    const std::vector<core::ApproachPtr>& approaches,
    const SweepOptions& options);

/// Convenience wrapper: builds the paper's five approaches from
/// `options.ip_budget_ms` / `options.game_threads` and runs the sweep.
[[nodiscard]] std::vector<PointResult> run_paper_sweep(
    const std::vector<SweepPoint>& points, const SweepOptions& options);

}  // namespace idde::sim
