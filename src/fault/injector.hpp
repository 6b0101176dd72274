// FaultInjector: the bridge from a FaultPlan (pure schedule data) to the
// degraded worlds the rest of the stack evaluates against. The injector
// slices [0, horizon) into epochs at the plan's edge-availability change
// times and is a forward-only cursor over them: it keeps one live epoch,
// the surviving-server mask, the degraded graph (an edge survives iff both
// endpoints and the link are up) and its all-pairs cost matrix, and steps
// it forward epoch by epoch as consumers ask for later times. Consumers —
// the analytic resilience walk below and des::FlowLevelSimulator — each own
// their injector, query it at non-decreasing times and never touch the
// plan's interval lists on the hot path.
//
// An injector is a per-consumer cursor: it is never shared across threads,
// so the fault layer adds no locks and stays outside the lock hierarchy
// entirely — see DESIGN.md §10.
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
  /// Indexes the plan's downtime endpoints by epoch and builds epoch 0 as a
  /// step from the fault-free world: the instance's own cost matrix,
  /// repaired across the edges down at t = 0. The injector keeps a pointer
  /// to `plan`, which must outlive it.
  FaultInjector(const model::ProblemInstance& instance,
                const FaultPlan& plan);
  /// A temporary plan would dangle.
  FaultInjector(const model::ProblemInstance& instance, FaultPlan&& plan) =
      delete;

  [[nodiscard]] std::size_t epoch_count() const noexcept {
    return starts_.size();
  }
  /// Advances the live epoch to `e` and returns it. Each step re-queries
  /// only the servers and links with a downtime endpoint at the epoch's
  /// start, then repairs the one cost matrix in place against the edges
  /// that went off or came back on (net::CostMatrix::repair), bit-identical
  /// to a fresh sweep; rows the delta cannot reach cost O(|delta|). When
  /// the instance's weights fail the repair precondition
  /// (net::absorption_free, say a zero-weight edge), every step, epoch 0
  /// included, takes the fresh sweep. The returned snapshot is overwritten
  /// by the next step. Expects the live epoch <= e < epoch_count(): the
  /// cursor never goes back.
  const AvailabilitySnapshot& epoch(std::size_t e);

  /// Index of the epoch containing time `t` (t >= 0).
  [[nodiscard]] std::size_t epoch_index(double t) const;
  /// The epoch containing `t`, advanced to as epoch() does.
  const AvailabilitySnapshot& snapshot_at(double t) {
    return epoch(epoch_index(t));
  }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return *plan_; }

 private:
  /// Steps the live state to epoch `e`: from the live epoch, or from the
  /// fault-free world for e = 0.
  void load(std::size_t e);

  const FaultPlan* plan_;
  std::vector<double> starts_;  ///< sorted epoch start times
  /// Base edges in adjacency order (parallel edges kept): an epoch is an
  /// on/off bit per base edge, and its graph lists the on edges in this
  /// order.
  std::vector<net::Edge> base_edges_;
  /// Every epoch graph is a subgraph of the base, so the base's weights
  /// decide the repair precondition for all of them.
  bool repairable_ = false;
  // CSR indexes (row r's values are [offset[r], offset[r + 1])). Within one
  // entity the plan's intervals do not overlap, so an entity's state can
  // change only at its own interval endpoints: the rows of epoch e name
  // everything that can change at its start, in ascending order.
  std::vector<std::size_t> server_offset_;    ///< per epoch
  std::vector<std::size_t> servers_at_;       ///< servers with an endpoint
  std::vector<std::size_t> link_offset_;      ///< per epoch
  std::vector<std::size_t> link_edges_at_;    ///< base edges of such links
  std::vector<std::size_t> incident_offset_;  ///< per server
  std::vector<std::size_t> incident_;         ///< its base edges
  std::size_t current_ = 0;  ///< index of the live epoch
  AvailabilitySnapshot live_;
  std::vector<std::uint8_t> on_;  ///< per base edge, in the live epoch
  // Per-step working sets; each keeps its capacity across steps.
  std::vector<std::size_t> touched_;  ///< base edges to re-query
  std::vector<net::Edge> edges_;
  std::vector<net::Edge> removed_;
  std::vector<net::Edge> added_;
  net::RepairScratch scratch_;
};

/// What to do with sigma when servers die.
enum class RepairPolicy : std::uint8_t {
  kNone = 0,    ///< ride it out: surviving replicas + cloud fallback only
  kGreedy = 1,  ///< re-heal sigma per epoch via core::GreedyDeliveryPlanner::replan
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

/// Evaluates a solved strategy of any code shape against a fault plan: for
/// every epoch, every request is resolved through core::Eq8Resolver (with
/// the profile's k and fragment size) over the epoch's surviving hosts
/// (optionally re-healed by RepairPolicy) and the results are weighted by
/// epoch length over [0, horizon). An inert plan short-circuits to the
/// fault-free metrics exactly.
[[nodiscard]] ResilienceReport evaluate_resilience(
    const model::ProblemInstance& instance, const core::Strategy& strategy,
    const FaultPlan& plan, RepairPolicy policy = RepairPolicy::kNone);

}  // namespace idde::fault
