// Strategy (de)serialisation: the user-allocation profile and the replica
// placements, so strategies can be archived next to their instances and
// re-evaluated later (tools/idde_tool drives this end-to-end).
#pragma once

#include <string>

#include "core/strategy.hpp"
#include "model/instance.hpp"
#include "util/json.hpp"

namespace idde::core {

[[nodiscard]] util::Json strategy_to_json(const Strategy& strategy);

/// Reads an "allocation" array against `instance`: one slot per user, null
/// for an unallocated one. Throws util::JsonError on a wrong length,
/// out-of-range indices, and a slot whose server does not cover its user
/// (Eq. 1): the interference model asserts Eq. 1, so such a slot must not
/// reach an evaluation.
[[nodiscard]] AllocationProfile allocation_from_json(
    const model::ProblemInstance& instance, const util::Json& json);

/// Rebuilds a strategy against `instance`. Throws util::JsonError on
/// malformed input, out-of-range indices, allocations outside their user's
/// coverage, and placements that violate the storage constraint of this
/// instance (checked via can_place before applying) — bad documents never
/// abort or load silently wrong.
[[nodiscard]] Strategy strategy_from_json(
    const model::ProblemInstance& instance, const util::Json& json);

[[nodiscard]] std::string strategy_to_string(const Strategy& strategy,
                                             int indent = -1);
[[nodiscard]] Strategy strategy_from_string(
    const model::ProblemInstance& instance, const std::string& text);

}  // namespace idde::core
