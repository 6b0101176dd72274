// Time-budgeted anytime search over the joint (allocation, placement)
// space — the in-repo substitute for feeding the Section 2.3 model to IBM
// CPLEX's CP Optimizer with a capped search time (the paper's IDDE-IP
// benchmark). See DESIGN.md §5 for the substitution argument.
//
// Contract mirrored from the original: "best incumbent after T ms".
//  - Allocation (objective #1 first, as in the model statement): repeated
//    randomised constructive probes — users assigned in a random order,
//    each to the candidate channel with the highest immediate benefit —
//    scored by exact R_avg; the best probe wins. No equilibrium refinement,
//    so it trails IDDE-G's Nash profile by a few percent.
//  - Placement (objective #2 with the remaining budget): the model-order
//    branch-and-bound of placement_bnb.hpp, whose early incumbents come
//    from diving on the variable order rather than a gain heuristic —
//    exactly the behaviour of an untuned CP model, and the reason the
//    paper's IDDE-IP shows poor latency despite a generous time budget.
#pragma once

#include "core/approach.hpp"
#include "model/instance.hpp"
#include "util/random.hpp"

namespace idde::solver {

struct JointSearchOptions {
  /// Wall-clock budget; half goes to each objective.
  double budget_ms = 200.0;
};

struct JointSearchResult {
  core::Strategy strategy;
  std::size_t allocation_probes = 0;
  std::size_t placement_nodes = 0;
  bool placement_proven_optimal = false;
};

[[nodiscard]] JointSearchResult joint_search(
    const model::ProblemInstance& instance, util::Rng& rng,
    const JointSearchOptions& options);

}  // namespace idde::solver
