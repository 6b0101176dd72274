// Rebuilding instances as users move. Everything except user positions —
// servers, storage, the edge network, the data catalogue, the request
// matrix, user powers and rate caps — is carried over from the base
// instance; channel gains and coverage sets are recomputed from the new
// positions.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "geo/point.hpp"
#include "model/instance.hpp"
#include "radio/pathloss.hpp"

namespace idde::dynamic {

/// Returns a fresh instance identical to `base` except that user j sits at
/// `positions[j]`. `positions.size()` must equal `base.user_count()`.
[[nodiscard]] model::ProblemInstance with_user_positions(
    const model::ProblemInstance& base,
    const std::vector<geo::Point>& positions,
    const radio::PathLossModel& pathloss);

/// Initial user positions of an instance (convenience for mobility setup).
[[nodiscard]] std::vector<geo::Point> user_positions(
    const model::ProblemInstance& instance);

/// Change-tracked instance rebuilds for time-stepped drivers. Keeps a
/// working copy of the base environment and refreshes coverage sets,
/// reach(j) and channel gains (path loss for reach(j) only) just for users
/// whose position actually changed since the previous update (exact
/// coordinate compare — a paused user costs nothing). Server neighbour
/// lists never change. Each per-user coverage/gain row is a pure function
/// of that user's position, so the tracked environment is bit-identical to
/// a full `with_user_positions` rebuild, which stays available as the
/// oracle (tests/test_dynamic.cpp asserts equivalence entry by entry).
class WorldTracker {
 public:
  WorldTracker(const model::ProblemInstance& base,
               radio::PathLossModel pathloss);

  /// Moves the tracked world to `positions` and rebuilds the instance.
  /// Returns the number of users whose gains/coverage were recomputed.
  std::size_t update(const std::vector<geo::Point>& positions);

  /// The instance at the most recent update (initially the base world).
  [[nodiscard]] const model::ProblemInstance& instance() const noexcept {
    return *instance_;
  }
  [[nodiscard]] const std::vector<geo::Point>& positions() const noexcept {
    return positions_;
  }

 private:
  const model::ProblemInstance* base_;
  radio::PathLossModel pathloss_;
  std::vector<geo::Point> positions_;
  std::vector<model::User> users_;     ///< base users at tracked positions
  radio::RadioEnvironment env_;        ///< working copy, patched per user
  std::optional<model::ProblemInstance> instance_;
  /// Per-update scratch: the users that moved, and the next reach index
  /// (swapped with env_'s, so both keep their capacity).
  std::vector<std::size_t> moved_;
  std::vector<std::size_t> offset_;
  std::vector<std::size_t> servers_;
  std::vector<double> gains_;
};

}  // namespace idde::dynamic
