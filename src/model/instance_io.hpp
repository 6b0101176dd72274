// Full-instance (de)serialisation. Unlike sim/scenario.hpp (which stores
// *generator parameters*), this stores the materialised instance — exact
// positions, storage, link weights, gains — so a solved scenario can be
// archived, diffed, or fed to external tooling and reloaded bit-exactly.
//
// Both directions stream (util::JsonWriter / util::JsonReader): the dense
// N x M gain matrix goes straight between the RadioEnvironment and the
// text, never through a Json DOM. The file layout is idde-instance-v1
// with keys in sorted order, byte for byte what a JsonObject dump writes.
#pragma once

#include <string>

#include "model/instance.hpp"
#include "util/json.hpp"

namespace idde::model {

/// Serialises every component of the instance. Channel gains are stored
/// explicitly (they are model inputs, not always derivable from geometry).
[[nodiscard]] std::string instance_to_string(const ProblemInstance& instance,
                                             int indent = -1);

/// Rebuilds an instance; the order of keys in the input does not matter.
/// Throws util::JsonError on malformed input AND on shape/range
/// inconsistencies (bad indices, non-finite or out-of-range values,
/// mismatched matrix sizes) — untrusted documents never abort the process
/// or reach downstream constructors in an invalid state.
[[nodiscard]] ProblemInstance instance_from_string(const std::string& text);

}  // namespace idde::model
