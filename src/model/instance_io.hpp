// Full-instance (de)serialisation. Unlike sim/scenario.hpp (which stores
// *generator parameters*), this stores the materialised instance — exact
// positions, storage, link weights, gains — so a solved scenario can be
// archived, diffed, or fed to external tooling and reloaded bit-exactly.
//
// Both directions stream (util::JsonWriter / util::JsonReader): the gains
// go straight between the RadioEnvironment and the text, never through a
// Json DOM. Keys come in sorted order, byte for byte what a JsonObject
// dump writes. The writer emits idde-instance-v2, whose radio object holds
//   "neighbours": one list per server o, nbr(o) ascending (o included);
//   "gain":       one row per user t, g_{i,t} for i in reach(t) in
//                 ascending server order — no index is stored, since
//                 reach(t) is the union of nbr(o) over the covering servers
//                 the reader recomputes from the positions and radii.
// The reader also accepts idde-instance-v1, whose "gain" is the dense
// row-major N x M matrix; it keeps only the reach(t) entries, so a v1 file
// solves exactly like its v2 rewrite.
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
/// mismatched matrix sizes, gain rows that do not match reach(t),
/// neighbour lists that break the closure invariant) — untrusted documents
/// never abort the process or reach downstream constructors in an invalid
/// state.
[[nodiscard]] ProblemInstance instance_from_string(const std::string& text);

}  // namespace idde::model
