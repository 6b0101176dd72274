// Phase 2 of IDDE-G (Algorithm 1, lines 22-26): greedily add the placement
// sigma_{i,k} with the highest latency-reduction-per-MB ratio (Eq. 17) until
// nothing feasible improves.
//
// plan() is a lazy greedy. Because the committed min in Eq. 8 makes the
// gain of every candidate monotonically non-increasing as sigma grows
// (submodularity, the property behind Theorem 6), stale heap keys are valid
// upper bounds: re-evaluate only the popped top and either commit it (still
// the best) or push it back with its refreshed ratio. The naive greedy that
// re-scores all N*K candidates per step is the oracle in
// tests/oracles/naive_greedy.hpp.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/delivery.hpp"
#include "core/strategy.hpp"
#include "model/instance.hpp"

namespace idde::core {

struct GreedyDeliveryResult {
  DeliveryProfile delivery;
  std::size_t placements = 0;
  std::size_t gain_evaluations = 0;
};

/// Planner methods are non-const because the planner owns reusable scratch
/// (the candidate heap's backing vector and one DeliveryEvaluator): after
/// the first plan on a given instance the greedy loop performs no heap
/// allocation per candidate or per committed move. Results are unaffected —
/// the scratch is rewound, never carried between plans.
class GreedyDeliveryPlanner {
 public:
  explicit GreedyDeliveryPlanner(const model::ProblemInstance& instance);

  [[nodiscard]] GreedyDeliveryResult plan(const AllocationProfile& allocation);

 private:
  /// Heap entry: ratio key (possibly stale upper bound) plus the candidate.
  struct Candidate {
    double ratio;
    std::size_t server;
    std::size_t item;

    bool operator<(const Candidate& other) const {
      return ratio < other.ratio;  // max-heap on ratio
    }
  };

  /// Rewinds the evaluator scratch for a fresh plan (constructs it on the
  /// first call; resets it afterwards).
  DeliveryEvaluator& evaluator_for(const AllocationProfile& allocation);

  const model::ProblemInstance* instance_;
  std::vector<Candidate> heap_;                ///< push_heap/pop_heap store
  std::optional<DeliveryEvaluator> evaluator_; ///< built once per instance
};

}  // namespace idde::core
