// Self-healing online controller (the serving mode of the repo).
//
// The offline pipeline solves one frozen instance; real edge systems do
// not hold still. ServeController keeps the paper's two artefacts — the
// IDDE-U equilibrium allocation and the delivery profile sigma —
// *incrementally repaired* while the world drifts under them: users walk
// (dynamic::RandomWaypointModel), sessions churn (dynamic::ChurnProcess),
// servers crash and recover (fault::FaultPlan). Four pillars:
//
//  1. Per-event repair budgets. Every event grants a bounded amount of
//     deterministic work (best-response rounds, greedy placements). A
//     repair that exhausts its budget leaves a degraded-but-valid profile
//     (a partial best-response run is still a valid allocation; sigma
//     stays feasible) and enqueues a continuation on a bounded backlog
//     with deadline-aware shedding and a qos::RetryBudget on re-enqueues.
//  2. Convergence watchdog. A repair whose move count looks like cycling
//     triggers a potential check (core::potential, Eq. 13); a suspect
//     repair that failed to raise the potential is rolled back and
//     counted as a strike. Enough strikes trip a breaker: the last-known-
//     good profile is restored (sanitised against the live world) and
//     repairs pause for a cooldown, then re-open one probe at a time.
//  3. Checkpoint/restore. checkpoint() serialises the complete mutable
//     state (RNG streams, walks, churn mask, allocation, sigma bits,
//     backlog, watchdog, counters) through the versioned, checksummed
//     envelope in serve/checkpoint.hpp; restore() resumes *bit-
//     identically* — the trajectory hash after restore + k ticks equals
//     the uninterrupted run's hash. Derived state (instance geometry,
//     fault plan, server-up masks) is regenerated, never stored.
//  4. Chaos validation: tests/test_serve.cpp kills and restores at
//     arbitrary event boundaries and injects the cycling rule
//     (core::UpdateRule::kCycleProbe, Serve.WatchdogContainsCyclingRepair-
//     Rule); bench/ext_serve (BENCH_serve.json) times mass-failure
//     recovery under starved budgets.
//
// Determinism contract: a trajectory is a pure function of
// (ServeConfig, seed). All budgets are counts, never wall-clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/greedy_delivery.hpp"
#include "core/health.hpp"
#include "core/strategy.hpp"
#include "dynamic/churn.hpp"
#include "dynamic/mobility.hpp"
#include "fault/degradation.hpp"
#include "fault/fault_plan.hpp"
#include "model/instance.hpp"
#include "qos/retry_budget.hpp"
#include "radio/pathloss.hpp"
#include "serve/config.hpp"
#include "serve/events.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace idde::serve {

/// What one tick did. All fields are deterministic counts.
struct TickReport {
  std::size_t tick = 0;
  std::size_t events = 0;
  std::size_t repairs = 0;        ///< repair invocations (incl. backlog)
  std::size_t repair_rounds = 0;  ///< solver rounds spent this tick
  std::size_t shed = 0;           ///< backlog tasks shed this tick
  std::size_t backlog = 0;        ///< backlog depth at end of tick
  bool degraded = false;
  bool breaker_open = false;
};

/// Lifetime counters, all checkpointed.
struct ServeStatus {
  std::size_t ticks = 0;
  std::size_t events_total = 0;
  std::size_t repairs_total = 0;
  std::size_t repair_rounds_total = 0;
  std::size_t repair_moves_total = 0;
  std::size_t degraded_ticks = 0;
  std::size_t backlog_peak = 0;
  std::size_t shed_total = 0;
  std::size_t potential_checks = 0;
  std::size_t watchdog_strikes = 0;
  std::size_t breaker_trips = 0;
  std::size_t lkg_restores = 0;
  /// Ticks from the injected flash failure to the first non-degraded
  /// tick; 0 until recovery completes (or when no flash is configured).
  std::size_t recovery_ticks = 0;
};

class ServeController {
 public:
  /// Builds the world from (config, seed) and runs the initial solve.
  ServeController(ServeConfig config, std::uint64_t seed);

  // The profiles and the planner point at instance_: a copied or moved
  // controller would read its source's world. Hold one by unique_ptr.
  ServeController(const ServeController&) = delete;
  ServeController& operator=(const ServeController&) = delete;
  ServeController(ServeController&&) = delete;
  ServeController& operator=(ServeController&&) = delete;

  /// Advances one tick: derive events, apply bookkeeping, run budgeted
  /// repairs, drain the backlog, fold the trajectory hash.
  TickReport tick();

  /// Serialises the complete mutable state (see header comment). The
  /// result round-trips through restore() bit-identically.
  [[nodiscard]] std::string checkpoint(int indent = -1) const;

  /// Overwrites this controller's state from a checkpoint produced by a
  /// controller with the same (config, seed) — enforced via a guard hash.
  /// Throws util::JsonError on malformed input, checksum mismatch,
  /// config/seed mismatch, or a semantically invalid snapshot (out-of-
  /// range ids, infeasible sigma). On throw the controller must be
  /// considered unusable (state may be partially overwritten).
  void restore(std::string_view checkpoint_text);

  /// FNV-1a fold of the full trajectory so far: events, allocation,
  /// sigma bits, backlog and breaker state of every tick. Two runs are
  /// bit-identical iff their hashes match at every tick.
  [[nodiscard]] std::uint64_t trajectory_hash() const noexcept {
    return trajectory_hash_;
  }

  [[nodiscard]] const ServeStatus& status() const noexcept { return status_; }
  [[nodiscard]] std::size_t current_tick() const noexcept { return tick_; }
  [[nodiscard]] const core::AllocationProfile& allocation() const noexcept {
    return allocation_;
  }
  [[nodiscard]] const model::ProblemInstance& instance() const noexcept {
    return instance_;
  }
  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool breaker_open() const noexcept { return breaker_open_; }
  [[nodiscard]] std::size_t backlog_size() const noexcept {
    return backlog_.size();
  }
  /// Placement count of the standing sigma (introspection for tests).
  [[nodiscard]] std::size_t sigma_placements() const noexcept {
    return sigma_.placement_count();
  }
  /// Servers currently health-demoted — gray, not down (introspection).
  [[nodiscard]] std::size_t gray_demoted_count() const noexcept {
    std::size_t demoted = 0;
    for (const std::uint8_t flag : gray_mask_) demoted += flag;
    return demoted;
  }

 private:
  void derive_events(double t);
  void apply_bookkeeping(const Event& event);
  void dispatch_repairs(const Event& event, TickReport& report);
  bool run_equilibrium_repair(TickReport& report);
  bool run_sigma_repair(TickReport& report);
  void build_candidates();
  void enqueue_repair(RepairKind kind, std::size_t attempts,
                      TickReport& report);
  void drain_backlog(TickReport& report);
  void trip_breaker();
  void restore_lkg();
  void maybe_update_lkg();
  [[nodiscard]] bool user_online(std::size_t user) const;
  void fold_tick_hash();
  [[nodiscard]] std::uint64_t guard_hash() const;
  /// Rebuilds a sigma from its checkpointed placement lists, refusing
  /// out-of-range ids, duplicates and placements over capacity — hostile
  /// checkpoints must fail structurally, not trip internal asserts.
  /// Throws util::JsonError.
  [[nodiscard]] core::DeliveryProfile sigma_from_json(
      const util::Json& payload, std::string_view server_key,
      std::string_view item_key) const;

  ServeConfig config_;
  std::uint64_t seed_;
  /// The one live world: built from (config, seed), users moved in place
  /// each tick before any repair reads it.
  model::ProblemInstance instance_;
  radio::PathLossModel pathloss_;
  fault::FaultPlan plan_;
  // Gray-failure plane: the degradation schedule is derived state (a pure
  // function of config and seed, regenerated on restore); the tracker and
  // the demotion mask are mutable state and are checkpointed.
  fault::DegradationPlan gray_plan_;
  core::HealthTracker health_;
  util::Rng walk_rng_;
  util::Rng churn_rng_;
  util::Rng solve_rng_;
  dynamic::RandomWaypointModel mobility_;
  dynamic::ChurnProcess churn_;
  qos::RetryBudget retry_;

  std::size_t tick_ = 0;
  core::AllocationProfile allocation_;
  // Sigma. Its headroom is derived: DeliveryProfile keeps an exact
  // integer-KB ledger, so replay recomputes identical bits in any order.
  // The checkpoint records the headroom for auditability and restore
  // refuses a record that differs from the replayed ledger.
  core::DeliveryProfile sigma_;
  bool equilibrium_clean_ = true;
  bool sigma_clean_ = true;
  /// Every sigma repair reuses this planner's scratch.
  core::GreedyDeliveryPlanner planner_;

  // Last known good (Pillar 2 fallback).
  core::AllocationProfile lkg_allocation_;
  core::DeliveryProfile lkg_sigma_;

  std::deque<RepairTask> backlog_;
  std::size_t strikes_ = 0;
  std::size_t cooldown_left_ = 0;
  bool breaker_open_ = false;
  bool half_open_ = false;

  std::vector<std::uint8_t> up_mask_;
  std::vector<std::uint8_t> prev_up_mask_;
  std::vector<std::uint8_t> gray_mask_;  ///< 1 = currently health-demoted
  std::vector<Event> events_;                        // per-tick scratch
  std::vector<std::vector<std::size_t>> candidates_;  // per-repair scratch

  /// The tick's last equilibrium solve: its start profile and what the
  /// controller reads from its result. Within one tick() the world, the
  /// candidate sets and the game options are fixed, so a repair whose
  /// start is bit-equal to `start` replays this result instead of solving
  /// (DESIGN.md §15, *Replaying repeated repairs*). Cleared at the top of
  /// every tick and never checkpointed; the buffers keep their capacity.
  struct RepairRecord {
    bool valid = false;
    core::AllocationProfile start;
    core::AllocationProfile allocation;
    std::size_t rounds = 0;
    std::size_t moves = 0;
    bool converged = false;
  };
  RepairRecord last_repair_;

  std::uint64_t trajectory_hash_;
  ServeStatus status_;
};

}  // namespace idde::serve
