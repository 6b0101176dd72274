// Test/bench oracle for ProblemInstance::set_user_positions: a full
// rebuild of the instance at new user positions.
//
// V_j comes from an O(N) distance scan per user (the definition, with no
// coverage index), reach(j) from RadioEnvironment::index_reach, the gains
// from unshadowed path loss, and the result goes through the
// ProblemInstance constructor, so RadioEnvironment::check() and the U_i
// build run on it. The in-place mutator must give the same instance bit
// for bit; tests/test_dynamic.cpp holds it to that.
#pragma once

#include <vector>

#include "geo/point.hpp"
#include "model/instance.hpp"
#include "radio/pathloss.hpp"

namespace idde::oracle {

/// Returns a fresh instance identical to `base` except that user j sits at
/// `positions[j]`. `positions.size()` must equal `base.user_count()`.
[[nodiscard]] model::ProblemInstance with_user_positions(
    const model::ProblemInstance& base,
    const std::vector<geo::Point>& positions,
    const radio::PathLossModel& pathloss);

}  // namespace idde::oracle
