// Phase 2 of IDDE-G (Algorithm 1, lines 22-26) and its post-crash repair,
// both run by the one lazy greedy in core/lazy_greedy.hpp: greedily add
// the placement sigma_{i,k} with the highest latency-reduction-per-MB
// ratio (Eq. 17) until nothing feasible improves.
//
// plan() runs it from the empty sigma with every server usable. replan()
// re-heals a sigma after servers die: their replicas disappear and the
// users they served fall back to the cloud, leaving spare Eq. 6 budget on
// the survivors. It keeps every surviving (and uncorrupted) placement,
// drops the rest and resumes the greedy on the surviving servers.
//
// One DeliveryEvaluator scores candidates at every (n, k) code shape. The
// sigma's shape, never the caller, picks what differs: at k = 1
// (replication) the planner emits delivery.* / repair.* telemetry; at
// k > 1 the loop rescans after each drain and the planner emits coding.*.
//
// With every server up and no corruption a replan is a provable no-op on a
// greedily saturated sigma at k = 1: committed gains only shrink as sigma
// grows (submodularity), so no candidate the original run rejected can
// become profitable. plan(a) equals replan(a, empty sigma, all up) bit for
// bit, at every k.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/delivery.hpp"
#include "core/lazy_greedy.hpp"
#include "core/strategy.hpp"
#include "model/instance.hpp"

namespace idde::core {

struct GreedyDeliveryResult {
  DeliveryProfile delivery;
  std::size_t placements = 0;
  /// At k > 1 this includes the terminating rescan(s).
  std::size_t gain_evaluations = 0;
  std::size_t rescan_rounds = 0;  ///< heap fills that found candidates
};

struct RepairResult {
  DeliveryProfile delivery;
  std::size_t lost_placements = 0;    ///< replicas on dead servers / corrupt
  std::size_t repair_placements = 0;  ///< new placements the repair added
  double recovered_gain_seconds = 0;  ///< total latency the repairs removed
};

/// Planner methods are non-const because the planner owns reusable scratch
/// (the candidate heap's backing vector, the evaluator and the
/// outage-masked allocation): after the first call on a given instance the
/// greedy loop performs no heap allocation per candidate or per committed
/// move. Results are unaffected — the scratch is rewound, never carried
/// between calls.
class GreedyDeliveryPlanner {
 public:
  explicit GreedyDeliveryPlanner(const model::ProblemInstance& instance);

  /// Phase 2 under replication: plan(allocation, replication_shape, true).
  [[nodiscard]] GreedyDeliveryResult plan(const AllocationProfile& allocation);

  /// Phase 2 from the empty sigma of code shape `shape`. `collaborative`
  /// selects full Eq. 8 delivery vs the local-or-cloud semantics of the
  /// non-collaborative baselines (Strategy::collaborative_delivery).
  [[nodiscard]] GreedyDeliveryResult plan(const AllocationProfile& allocation,
                                          FragmentConfig shape,
                                          bool collaborative = true);

  /// Re-heals `sigma` for the world where only `server_up` servers survive
  /// (empty: all up). Users allocated to dead servers are treated as
  /// cloud-bound for the duration of the outage. The result keeps sigma's
  /// code shape.
  ///
  /// `max_placements` caps how many *new* placements the greedy may add
  /// (surviving placements are always kept). The online controller uses
  /// it as a per-event work budget; the first n placements of a budgeted
  /// run are the first n of an unbudgeted one; at k > 1 the rescans run
  /// only while budget remains.
  [[nodiscard]] RepairResult replan(
      const AllocationProfile& allocation, const DeliveryProfile& sigma,
      std::span<const std::uint8_t> server_up,
      const ReplicaLost& replica_lost = {}, bool collaborative = true,
      std::size_t max_placements = std::numeric_limits<std::size_t>::max());

 private:
  /// Rewinds the evaluator scratch (constructs it on the first call).
  DeliveryEvaluator& evaluator_for(const AllocationProfile& allocation,
                                   FragmentConfig shape, bool collaborative);

  const model::ProblemInstance* instance_;
  std::vector<GreedyCandidate> heap_;           ///< the loop's candidate heap
  std::optional<DeliveryEvaluator> evaluator_;  ///< built once per instance
  AllocationProfile effective_;                 ///< outage-masked allocation
};

}  // namespace idde::core
