// User mobility — the paper's stated future work ("we will investigate the
// dynamics of user movements and data migrations in IDDE scenarios").
// Random-waypoint is the standard pedestrian model: each user walks toward
// a uniformly drawn waypoint at a per-user speed, pauses, and picks the
// next waypoint.
#pragma once

#include <vector>

#include "geo/bbox.hpp"
#include "geo/point.hpp"
#include "model/instance.hpp"
#include "util/random.hpp"

namespace idde::dynamic {

/// Initial user positions of an instance (the walk's starting points).
[[nodiscard]] std::vector<geo::Point> user_positions(
    const model::ProblemInstance& instance);

struct MobilityParams {
  double min_speed_mps = 0.5;  ///< slow pedestrian
  double max_speed_mps = 1.5;  ///< brisk pedestrian
  double pause_seconds = 5.0;  ///< dwell at each waypoint
};

class RandomWaypointModel {
 public:
  /// Per-user walk state, exposed for checkpoint/restore: together with
  /// the position and the walk RNG stream it is the model's entire state.
  struct WalkState {
    geo::Point waypoint;
    double speed_mps = 1.0;
    double pause_left_s = 0.0;
  };

  /// Starts every user at its given position with a fresh waypoint.
  RandomWaypointModel(std::vector<geo::Point> initial_positions,
                      geo::BoundingBox bounds, MobilityParams params,
                      util::Rng& rng);

  /// Advances all users by `dt` seconds.
  void step(double dt_seconds, util::Rng& rng);

  [[nodiscard]] const std::vector<geo::Point>& positions() const noexcept {
    return positions_;
  }
  [[nodiscard]] std::size_t user_count() const noexcept {
    return positions_.size();
  }

  /// Total distance walked by all users so far (metres).
  [[nodiscard]] double total_distance_m() const noexcept {
    return total_distance_m_;
  }

  [[nodiscard]] const std::vector<WalkState>& walks() const noexcept {
    return walks_;
  }

  /// Overwrites the model's state verbatim (checkpoint restore). Sizes
  /// must match the construction-time user count; the caller restores the
  /// walk RNG stream separately so the next step() draws identically.
  void restore_state(std::vector<geo::Point> positions,
                     std::vector<WalkState> walks, double total_distance_m);

 private:
  void assign_waypoint(std::size_t user, util::Rng& rng);

  std::vector<geo::Point> positions_;
  std::vector<WalkState> walks_;
  geo::BoundingBox bounds_;
  MobilityParams params_;
  double total_distance_m_ = 0.0;
};

}  // namespace idde::dynamic
