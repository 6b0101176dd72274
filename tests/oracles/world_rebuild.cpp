#include "oracles/world_rebuild.hpp"

#include <span>

#include "util/assert.hpp"

namespace idde::oracle {

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
        env.covering_servers[j].push_back(i);
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

}  // namespace idde::oracle
