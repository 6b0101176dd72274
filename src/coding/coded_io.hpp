// Coded strategy (de)serialisation: the allocation profile, the (n, k)
// code shape and the fragment placements. Same hostile-input contract as
// core::strategy_io — every malformed document throws util::JsonError,
// never aborts or loads silently wrong.
#pragma once

#include <string>

#include "coding/coded_profile.hpp"
#include "model/instance.hpp"
#include "util/json.hpp"

namespace idde::coding {

[[nodiscard]] util::Json coded_strategy_to_json(const CodedStrategy& strategy);

/// Rebuilds a coded strategy against `instance`. Throws util::JsonError
/// on malformed input, an invalid (n, k) shape (needs 1 <= k <= n), an
/// allocation outside its user's coverage (core::allocation_from_json), and
/// placements that are duplicates, exceed the item's n fragments, or
/// violate the fragment-size storage constraint (checked via can_place).
[[nodiscard]] CodedStrategy coded_strategy_from_json(
    const model::ProblemInstance& instance, const util::Json& json);

[[nodiscard]] std::string coded_strategy_to_string(
    const CodedStrategy& strategy, int indent = -1);
[[nodiscard]] CodedStrategy coded_strategy_from_string(
    const model::ProblemInstance& instance, const std::string& text);

}  // namespace idde::coding
