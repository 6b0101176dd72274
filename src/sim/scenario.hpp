// Scenario configuration = InstanceParams (and the optional fault profile)
// + JSON (de)serialisation, so examples and external tooling can describe
// experiments declaratively.
#pragma once

#include <string>

#include "core/strategy.hpp"
#include "fault/fault_plan.hpp"
#include "model/instance_builder.hpp"
#include "util/json.hpp"

namespace idde::sim {

/// Serialises every tunable of InstanceParams (defaults included).
[[nodiscard]] util::Json params_to_json(const model::InstanceParams& params);

/// Applies the fields present in `json` on top of defaults; unknown keys
/// are ignored, wrong-typed known keys keep their defaults.
[[nodiscard]] model::InstanceParams params_from_json(const util::Json& json);

/// Round-trips through a JSON string.
[[nodiscard]] std::string params_to_string(const model::InstanceParams& params,
                                           int indent = 2);
[[nodiscard]] model::InstanceParams params_from_string(const std::string& text);

/// Serialises a fault profile (same conventions as params_to_json).
[[nodiscard]] util::Json fault_profile_to_json(
    const fault::FaultProfile& profile);

/// Applies fields present in `json` on top of the (inert) defaults.
[[nodiscard]] fault::FaultProfile fault_profile_from_json(
    const util::Json& json);

/// Serialises an erasure-coding config (same conventions as
/// params_to_json).
[[nodiscard]] util::Json fragment_config_to_json(
    const core::FragmentConfig& config);

/// Applies fields present in `json` on top of the default (n = k = 1),
/// through core::code_shape_from_json. Throws util::JsonError when a field
/// is not an integer index or the result is invalid (k < 1, n < k or
/// n > core::kMaxCodeLength) — a silently clamped or wrapped code rate
/// would change every downstream number.
[[nodiscard]] core::FragmentConfig fragment_config_from_json(
    const util::Json& json);

}  // namespace idde::sim
