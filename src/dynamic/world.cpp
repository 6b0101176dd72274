#include "dynamic/world.hpp"

#include <span>

#include "util/assert.hpp"

namespace idde::dynamic {

model::ProblemInstance with_user_positions(
    const model::ProblemInstance& base,
    const std::vector<geo::Point>& positions,
    const radio::PathLossModel& pathloss) {
  IDDE_EXPECTS(positions.size() == base.user_count());

  std::vector<model::User> users = base.users();
  for (std::size_t j = 0; j < users.size(); ++j) {
    users[j].position = positions[j];
  }

  radio::RadioEnvironment env = base.radio_env();
  for (std::size_t j = 0; j < users.size(); ++j) {
    env.covering_servers[j].clear();
    for (std::size_t i = 0; i < base.server_count(); ++i) {
      if (geo::distance_m(base.server(i).position, positions[j]) <=
          base.server(i).coverage_radius_m) {
        env.covering_servers[j].push_back(i);  // lint: alloc-ok(oracle)
      }
    }
  }
  env.index_reach();
  for (std::size_t j = 0; j < users.size(); ++j) {
    const std::span<const std::size_t> reach = env.reach(j);
    const std::span<double> gains = env.gains(j);
    for (std::size_t e = 0; e < reach.size(); ++e) {
      gains[e] = pathloss.gain(
          geo::distance_m(base.server(reach[e]).position, positions[j]));
    }
  }

  return model::ProblemInstance(base.servers(), std::move(users),
                                base.data_items(), base.requests(),
                                base.graph(), base.latency(), std::move(env));
}

WorldTracker::WorldTracker(const model::ProblemInstance& base,
                           radio::PathLossModel pathloss)
    : base_(&base),
      pathloss_(pathloss),
      positions_(user_positions(base)),
      users_(base.users()),
      env_(base.radio_env()) {
  moved_.reserve(users_.size());
  offset_.reserve(users_.size() + 1);
  servers_.reserve(env_.reach_server.size());
  gains_.reserve(env_.gain.size());
  instance_.emplace(base.servers(), users_, base.data_items(),
                    base.requests(), base.graph(), base.latency(), env_);
}

std::size_t WorldTracker::update(const std::vector<geo::Point>& positions) {
  IDDE_EXPECTS(positions.size() == base_->user_count());
  const std::size_t server_count = base_->server_count();
  const std::size_t user_count = positions.size();
  moved_.clear();
  for (std::size_t j = 0; j < user_count; ++j) {
    if (positions[j] == positions_[j]) continue;
    positions_[j] = positions[j];
    users_[j].position = positions[j];
    std::vector<std::size_t>& covering = env_.covering_servers[j];
    covering.clear();
    for (std::size_t i = 0; i < server_count; ++i) {
      const model::EdgeServer& s = base_->server(i);
      if (geo::distance_m(s.position, positions[j]) <= s.coverage_radius_m) {
        covering.push_back(i);  // lint: alloc-ok(cleared, capacity kept)
      }
    }
    moved_.push_back(j);
  }
  if (moved_.empty()) return 0;

  // Re-index the reach rows: a moved user gets a fresh reach(j) and path
  // loss for it alone; every other row is copied as it stands.
  offset_.clear();
  offset_.push_back(0);
  servers_.clear();
  gains_.clear();
  auto next = moved_.begin();
  for (std::size_t t = 0; t < user_count; ++t) {
    if (next != moved_.end() && *next == t) {
      ++next;
      const std::size_t first = servers_.size();
      radio::append_reach(env_.neighbours, env_.covering_servers[t], servers_);
      for (std::size_t e = first; e < servers_.size(); ++e) {
        gains_.push_back(pathloss_.gain(geo::distance_m(
            base_->server(servers_[e]).position, positions[t])));
      }
    } else {
      const std::span<const std::size_t> reach = env_.reach(t);
      const std::span<const double> gains = env_.gains(t);
      servers_.insert(servers_.end(), reach.begin(), reach.end());
      gains_.insert(gains_.end(), gains.begin(), gains.end());
    }
    offset_.push_back(servers_.size());
  }
  env_.reach_offset.swap(offset_);
  env_.reach_server.swap(servers_);
  env_.gain.swap(gains_);
  instance_.emplace(base_->servers(), users_, base_->data_items(),
                    base_->requests(), base_->graph(), base_->latency(), env_);
  return moved_.size();
}

std::vector<geo::Point> user_positions(const model::ProblemInstance& instance) {
  std::vector<geo::Point> positions;
  positions.reserve(instance.user_count());
  for (const model::User& user : instance.users()) {
    positions.push_back(user.position);
  }
  return positions;
}

}  // namespace idde::dynamic
