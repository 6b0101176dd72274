#include "dynamic/mobility.hpp"

#include <cmath>
#include <utility>

#include "util/assert.hpp"

namespace idde::dynamic {

std::vector<geo::Point> user_positions(const model::ProblemInstance& instance) {
  std::vector<geo::Point> positions;
  positions.reserve(instance.user_count());
  for (const model::User& user : instance.users()) {
    positions.push_back(user.position);
  }
  return positions;
}

RandomWaypointModel::RandomWaypointModel(
    std::vector<geo::Point> initial_positions, geo::BoundingBox bounds,
    MobilityParams params, util::Rng& rng)
    : positions_(std::move(initial_positions)),
      bounds_(bounds),
      params_(params) {
  IDDE_EXPECTS(params.min_speed_mps > 0.0);
  IDDE_EXPECTS(params.max_speed_mps >= params.min_speed_mps);
  IDDE_EXPECTS(params.pause_seconds >= 0.0);
  walks_.resize(positions_.size());
  for (std::size_t j = 0; j < positions_.size(); ++j) {
    assign_waypoint(j, rng);
  }
}

void RandomWaypointModel::assign_waypoint(std::size_t user, util::Rng& rng) {
  walks_[user].waypoint =
      geo::Point{rng.uniform(bounds_.min.x, bounds_.max.x),
                 rng.uniform(bounds_.min.y, bounds_.max.y)};
  walks_[user].speed_mps =
      rng.uniform(params_.min_speed_mps, params_.max_speed_mps);
}

void RandomWaypointModel::restore_state(std::vector<geo::Point> positions,
                                        std::vector<WalkState> walks,
                                        double total_distance_m) {
  IDDE_EXPECTS(positions.size() == positions_.size());
  IDDE_EXPECTS(walks.size() == walks_.size());
  IDDE_EXPECTS(total_distance_m >= 0.0);
  positions_ = std::move(positions);
  walks_ = std::move(walks);
  total_distance_m_ = total_distance_m;
}

void RandomWaypointModel::step(double dt_seconds, util::Rng& rng) {
  IDDE_EXPECTS(dt_seconds >= 0.0);
  for (std::size_t j = 0; j < positions_.size(); ++j) {
    double budget = dt_seconds;
    WalkState& walk = walks_[j];
    geo::Point& pos = positions_[j];
    while (budget > 0.0) {
      if (walk.pause_left_s > 0.0) {
        const double pause = std::min(walk.pause_left_s, budget);
        walk.pause_left_s -= pause;
        budget -= pause;
        continue;
      }
      const double dist_to_waypoint = geo::distance_m(pos, walk.waypoint);
      const double reachable = walk.speed_mps * budget;
      if (reachable >= dist_to_waypoint) {
        // Arrive, pause, re-target.
        total_distance_m_ += dist_to_waypoint;
        budget -= dist_to_waypoint / walk.speed_mps;
        pos = walk.waypoint;
        walk.pause_left_s = params_.pause_seconds;
        assign_waypoint(j, rng);
      } else {
        const double frac = reachable / dist_to_waypoint;
        pos.x += (walk.waypoint.x - pos.x) * frac;
        pos.y += (walk.waypoint.y - pos.y) * frac;
        total_distance_m_ += reachable;
        budget = 0.0;
      }
    }
  }
}

}  // namespace idde::dynamic
