// FaultInjector: the bridge from a FaultPlan (pure schedule data) to the
// degraded worlds the rest of the stack evaluates against. The injector
// slices [0, horizon) into epochs at the plan's edge-availability change
// times and precomputes, per epoch, the surviving-server mask, the
// degraded graph (an edge survives iff both endpoints and the link are
// up) and its all-pairs cost matrix. Consumers — the analytic resilience
// evaluator below and des::FlowLevelSimulator — index epochs by time and
// never touch the plan's interval lists on the hot path.
//
// Everything here is immutable after construction (the injector is built
// once, then only read), so the fault layer adds no locks and stays
// outside the lock hierarchy entirely — see DESIGN.md §10.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/strategy.hpp"
#include "fault/fault_plan.hpp"
#include "model/instance.hpp"
#include "net/graph.hpp"
#include "net/shortest_path.hpp"

namespace idde::fault {

/// One maximal interval of constant edge availability.
struct AvailabilitySnapshot {
  double start_s = 0.0;
  double end_s = 0.0;                  ///< +inf for the final epoch
  std::vector<std::uint8_t> server_up;  ///< per-server liveness
  bool all_up = false;                 ///< fast path: nothing degraded
  net::Graph graph;                    ///< surviving edges only
  net::CostMatrix costs;               ///< all-pairs over `graph`
};

class FaultInjector {
 public:
  /// Precomputes every epoch eagerly. Cost: one Dijkstra sweep per epoch
  /// with at least one fault; all-up epochs share nothing but are cheap
  /// (the fault-free matrix is rebuilt, not aliased, to keep the struct
  /// self-contained).
  FaultInjector(const model::ProblemInstance& instance,
                const FaultPlan& plan);

  [[nodiscard]] std::size_t epoch_count() const noexcept {
    return epochs_.size();
  }
  [[nodiscard]] const AvailabilitySnapshot& epoch(std::size_t e) const {
    return epochs_[e];
  }

  /// Index of the epoch containing time `t` (t >= 0).
  [[nodiscard]] std::size_t epoch_index(double t) const;
  [[nodiscard]] const AvailabilitySnapshot& snapshot_at(double t) const {
    return epochs_[epoch_index(t)];
  }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return *plan_; }

 private:
  const FaultPlan* plan_;
  std::vector<AvailabilitySnapshot> epochs_;
  std::vector<double> starts_;  ///< sorted epoch start times
};

/// What to do with sigma when servers die.
enum class RepairPolicy : std::uint8_t {
  kNone = 0,    ///< ride it out: surviving replicas + cloud fallback only
  kGreedy = 1,  ///< re-heal sigma per epoch via core::RepairPlanner
};

/// Time-weighted analytic resilience metrics over the plan's horizon.
struct ResilienceReport {
  double fault_free_latency_ms = 0.0;  ///< L_avg with no faults (Eq. 9)
  double degraded_latency_ms = 0.0;    ///< time-weighted L_avg under faults
  /// Fraction of (request, time) mass served at the fault-free primary
  /// tier; 1.0 when the plan is inert.
  double availability = 1.0;
  /// Time-weighted fraction served per core::FallbackTier.
  std::array<double, 3> tier_fraction{};
  std::size_t epochs = 0;
  std::size_t lost_placements = 0;    ///< total across repaired epochs
  std::size_t repair_placements = 0;  ///< total across repaired epochs
};

/// Evaluates a solved strategy against a fault plan: for every epoch,
/// every request is resolved through core::Eq8Resolver over the epoch's
/// surviving replicas (optionally re-healed by RepairPolicy) and the
/// results are weighted by epoch length over [0, horizon). An inert plan
/// short-circuits to the fault-free metrics exactly (fault/resilience.hpp
/// holds the walk, shared with coding::evaluate_coded_resilience).
[[nodiscard]] ResilienceReport evaluate_resilience(
    const model::ProblemInstance& instance, const core::Strategy& strategy,
    const FaultPlan& plan, RepairPolicy policy = RepairPolicy::kNone);

}  // namespace idde::fault
