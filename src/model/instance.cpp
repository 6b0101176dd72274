#include "model/instance.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "geo/spatial_grid.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace idde::model {

bool coverage_discs_meet(const EdgeServer& a, const EdgeServer& b) {
  return geo::distance_m(a.position, b.position) <=
         (a.coverage_radius_m + b.coverage_radius_m) * (1.0 + kDiscSlack);
}

std::vector<std::vector<ServerId>> coverage_neighbours(
    const std::vector<EdgeServer>& servers) {
  std::vector<std::vector<ServerId>> neighbours(servers.size());
  for (ServerId o = 0; o < servers.size(); ++o) {
    for (ServerId i = 0; i < servers.size(); ++i) {
      if (i == o || coverage_discs_meet(servers[i], servers[o])) {
        neighbours[o].push_back(i);  // lint: alloc-ok(once per build)
      }
    }
  }
  return neighbours;
}

void coverage_sets(const std::vector<EdgeServer>& servers,
                   const std::vector<User>& users,
                   std::vector<std::vector<ServerId>>& covering) {
  covering.resize(users.size());
  if (servers.empty()) {
    for (std::vector<ServerId>& row : covering) row.clear();
    return;
  }
  std::vector<geo::Point> positions;
  positions.reserve(servers.size());
  geo::BoundingBox bounds{servers.front().position, servers.front().position};
  double max_radius = 0.0;
  for (const EdgeServer& s : servers) {
    IDDE_EXPECTS(std::isfinite(s.coverage_radius_m) &&
                 s.coverage_radius_m >= 0.0);
    positions.push_back(s.position);
    bounds.min = {std::min(bounds.min.x, s.position.x),
                  std::min(bounds.min.y, s.position.y)};
    bounds.max = {std::max(bounds.max.x, s.position.x),
                  std::max(bounds.max.y, s.position.y)};
    max_radius = std::max(max_radius, s.coverage_radius_m);
  }
  // Cells of half the largest radius (at least 50 m), coarsened so that a
  // far-flung file cannot ask for more than kMaxCells per axis.
  constexpr double kMaxCells = 256.0;
  const double extent = std::max(bounds.width(), bounds.height());
  IDDE_EXPECTS(std::isfinite(extent));
  const geo::SpatialGrid grid(
      positions, bounds,
      std::max({50.0, max_radius / 2.0, extent / kMaxCells}));
  // The grid tests squared distances; the slack keeps a user that
  // distance_m puts exactly on the largest disc's rim among the candidates.
  const double candidate_radius = max_radius * (1.0 + kDiscSlack);
  for (std::size_t j = 0; j < users.size(); ++j) {
    const geo::Point& at = users[j].position;
    IDDE_EXPECTS(std::isfinite(at.x) && std::isfinite(at.y));
    std::vector<ServerId>& row = covering[j];
    grid.query_radius(at, candidate_radius, row);
    std::erase_if(row, [&](std::size_t i) {
      return !(geo::distance_m(servers[i].position, at) <=
               servers[i].coverage_radius_m);
    });
  }
}

ProblemInstance::ProblemInstance(std::vector<EdgeServer> servers,
                                 std::vector<User> users,
                                 std::vector<DataItem> data,
                                 RequestMatrix requests, net::Graph graph,
                                 net::DeliveryLatencyModel latency,
                                 radio::RadioEnvironment radio_env)
    : servers_(std::move(servers)),
      users_(std::move(users)),
      data_(std::move(data)),
      requests_(std::move(requests)),
      graph_(std::move(graph)),
      latency_(std::move(latency)),
      radio_env_(std::move(radio_env)) {
  // Input validation, not internal invariants: instances are assembled
  // from files and generator output, so inconsistency throws a typed
  // ValidationError (structured CLI error contract) instead of aborting.
  util::validate(requests_.user_count() == users_.size(),
                 "instance: request matrix user count mismatch");
  util::validate(requests_.data_count() == data_.size(),
                 "instance: request matrix data count mismatch");
  util::validate(graph_.node_count() == servers_.size(),
                 "instance: graph node count mismatch");
  util::validate(latency_.server_count() == servers_.size(),
                 "instance: latency model server count mismatch");
  util::validate(radio_env_.server_count == servers_.size(),
                 "instance: radio environment server count mismatch");
  util::validate(radio_env_.user_count == users_.size(),
                 "instance: radio environment user count mismatch");
  radio_env_.check();

  index_covered_users();
  for (const EdgeServer& s : servers_) {
    util::validate(s.storage_mb >= 0.0, "instance: negative server storage");
    total_storage_mb_ += s.storage_mb;
  }
  for (const DataItem& d : data_) {
    util::validate(d.size_mb > 0.0, "instance: non-positive data size");
    max_data_size_mb_ = std::max(max_data_size_mb_, d.size_mb);
  }
}

void ProblemInstance::set_user_positions(
    const std::vector<geo::Point>& positions,
    const radio::PathLossModel& pathloss) {
  IDDE_EXPECTS(positions.size() == users_.size());
  for (UserId j = 0; j < users_.size(); ++j) {
    users_[j].position = positions[j];
  }
  coverage_sets(servers_, users_, radio_env_.covering_servers);
  radio_env_.index_reach();
  for (UserId j = 0; j < users_.size(); ++j) {
    const std::span<const ServerId> reach = radio_env_.reach(j);
    const std::span<double> gains = radio_env_.gains(j);
    for (std::size_t e = 0; e < reach.size(); ++e) {
      gains[e] = pathloss.gain(
          geo::distance_m(servers_[reach[e]].position, positions[j]));
    }
  }
  index_covered_users();
}

void ProblemInstance::index_covered_users() {
  covered_users_.resize(servers_.size());
  for (std::vector<UserId>& row : covered_users_) row.clear();
  for (UserId j = 0; j < users_.size(); ++j) {
    for (const ServerId i : radio_env_.covering_servers[j]) {
      covered_users_[i].push_back(j);  // lint: alloc-ok(capacity kept)
    }
  }
}

}  // namespace idde::model
