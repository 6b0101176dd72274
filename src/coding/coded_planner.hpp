// Coded Phase 2 and its repair: the lazy greedy of core/lazy_greedy.hpp
// over a CodedDeliveryProfile, adding the fragment placement with the
// highest latency-reduction-per-fragment-MB ratio (the coded Eq. 17) until
// nothing feasible improves. plan() runs it from the empty coded sigma;
// replan() keeps the surviving (uncorrupted) fragments of a coded sigma
// and resumes it on the surviving servers.
//
// For k > 1 a fragment's gain can grow as other fragments of the same
// item land, so CodedDeliveryEvaluator makes the loop rescan after every
// drain until a rescan finds nothing. At k = 1 gains are submodular, the
// first rescan is provably empty, and the committed moves are
// bit-identical to core::GreedyDeliveryPlanner's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "coding/coded_evaluator.hpp"
#include "coding/coded_profile.hpp"
#include "coding/fragment.hpp"
#include "core/lazy_greedy.hpp"
#include "core/strategy.hpp"
#include "model/instance.hpp"

namespace idde::coding {

struct CodedPlanResult {
  CodedDeliveryProfile delivery;
  std::size_t placements = 0;
  /// Includes the terminating rescan(s) — higher than the replication
  /// planner's count even at k = 1 (the placements are what must match).
  std::size_t gain_evaluations = 0;
  std::size_t rescan_rounds = 0;  ///< refills that found new candidates
};

struct CodedRepairResult {
  CodedDeliveryProfile delivery;
  std::size_t lost_placements = 0;    ///< fragments on dead servers / corrupt
  std::size_t repair_placements = 0;  ///< new fragments the repair added
  double recovered_gain_seconds = 0;  ///< total latency the repairs removed
};

/// Non-const plan()/replan(): the planner owns reusable scratch (candidate
/// heap, one CodedDeliveryEvaluator, the outage-masked allocation) —
/// rewound per call, never carried between calls.
class CodedGreedyPlanner {
 public:
  explicit CodedGreedyPlanner(const model::ProblemInstance& instance);

  /// `collaborative` selects full coded Eq. 8 delivery vs the
  /// local-or-cloud semantics of the non-collaborative baselines — the
  /// same flag core::Strategy carries.
  [[nodiscard]] CodedPlanResult plan(const core::AllocationProfile& allocation,
                                     FragmentConfig config,
                                     bool collaborative = true);

  /// Same survivor, outage-masking and max_placements budget semantics as
  /// core::GreedyDeliveryPlanner::replan; the k > 1 rescan only runs while
  /// budget remains.
  [[nodiscard]] CodedRepairResult replan(
      const core::AllocationProfile& allocation,
      const CodedDeliveryProfile& sigma,
      std::span<const std::uint8_t> server_up,
      const core::ReplicaLost& replica_lost = {}, bool collaborative = true,
      std::size_t max_placements = std::numeric_limits<std::size_t>::max());

 private:
  CodedDeliveryEvaluator& evaluator_for(
      const core::AllocationProfile& allocation, FragmentConfig config,
      bool collaborative);

  const model::ProblemInstance* instance_;
  std::vector<core::GreedyCandidate> heap_;
  std::optional<CodedDeliveryEvaluator> evaluator_;
  core::AllocationProfile effective_;  ///< outage-masked allocation
};

}  // namespace idde::coding
