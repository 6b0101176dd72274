// Strategy (de)serialisation: the user-allocation profile and the
// placements, so strategies can be archived next to their instances and
// re-evaluated later (tools/idde_tool drives this end-to-end). A
// replication strategy is an "idde-strategy-v1" document; any other code
// shape is an "idde-coded-strategy-v1" document with a "coding": {n, k}
// block.
#pragma once

#include <cstddef>
#include <string>

#include "core/strategy.hpp"
#include "model/instance.hpp"
#include "util/json.hpp"

namespace idde::core {

inline constexpr const char* kStrategyFormat = "idde-strategy-v1";
inline constexpr const char* kCodedFormat = "idde-coded-strategy-v1";

/// Writes the document of the profile's shape: kStrategyFormat for
/// replication_shape, kCodedFormat for any other.
[[nodiscard]] util::Json strategy_to_json(const Strategy& strategy);

/// Reads an (n, k) code shape: the "n" and "k" fields `json` has, over
/// `shape`. Throws util::JsonError unless both are integers with
/// 1 <= k <= n <= max_n (max_n <= kMaxCodeLength). Every reader of a code
/// shape goes through this one check.
[[nodiscard]] FragmentConfig code_shape_from_json(const util::Json& json,
                                                  FragmentConfig shape,
                                                  std::size_t max_n);

/// Reads an "allocation" array against `instance`: one slot per user, null
/// for an unallocated one. Throws util::JsonError on a wrong length,
/// out-of-range indices, and a slot whose server does not cover its user
/// (Eq. 1): the interference model asserts Eq. 1, so such a slot must not
/// reach an evaluation.
[[nodiscard]] AllocationProfile allocation_from_json(
    const model::ProblemInstance& instance, const util::Json& json);

/// Rebuilds a strategy of either format against `instance`. Throws
/// util::JsonError on malformed input, an invalid code shape (n is capped
/// by the server count), out-of-range indices, allocations outside their
/// user's coverage, and placements that are duplicates, exceed the item's n
/// fragments or violate the storage constraint of this instance (checked
/// via can_place before applying) — bad documents never abort or load
/// silently wrong. An (N, 1) coded document loads as replication.
[[nodiscard]] Strategy strategy_from_json(
    const model::ProblemInstance& instance, const util::Json& json);

[[nodiscard]] std::string strategy_to_string(const Strategy& strategy,
                                             int indent = -1);
[[nodiscard]] Strategy strategy_from_string(
    const model::ProblemInstance& instance, const std::string& text);

}  // namespace idde::core
