#include "model/instance.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "obs/obs.hpp"
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

geo::CoverageIndex coverage_index(const std::vector<EdgeServer>& servers) {
  std::vector<geo::Point> centres;
  std::vector<double> radii_m;
  centres.reserve(servers.size());
  radii_m.reserve(servers.size());
  for (const EdgeServer& s : servers) {
    centres.push_back(s.position);
    radii_m.push_back(s.coverage_radius_m);
  }
  return geo::CoverageIndex(centres, radii_m);
}

void coverage_sets(const std::vector<EdgeServer>& servers,
                   const std::vector<User>& users,
                   std::vector<std::vector<ServerId>>& covering) {
  const geo::CoverageIndex index = coverage_index(servers);
  covering.resize(users.size());
  for (std::size_t j = 0; j < users.size(); ++j) {
    index.covering(users[j].position, covering[j]);
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
    util::validate(std::isfinite(s.position.x) && std::isfinite(s.position.y),
                   "instance: non-finite server position");
    util::validate(std::isfinite(s.coverage_radius_m) &&
                       s.coverage_radius_m >= 0.0,
                   "instance: coverage radius must be finite and >= 0");
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
  if (!coverage_index_) coverage_index_ = coverage_index(servers_);
  changed_users_.reserve(users_.size());
  changed_users_.clear();
  for (UserId j = 0; j < users_.size(); ++j) {
    users_[j].position = positions[j];
    coverage_index_->covering(positions[j], row_scratch_);
    std::vector<ServerId>& row = radio_env_.covering_servers[j];
    if (row != row_scratch_) {
      row.assign(row_scratch_.begin(), row_scratch_.end());
      changed_users_.push_back(j);
    }
  }
  IDDE_OBS_COUNT("model.coverage_rows_rederived_total",
                 changed_users_.size());
  if (!changed_users_.empty()) {
    radio_env_.reindex_reach(changed_users_, spare_reach_offset_,
                             spare_reach_server_);
  }
  for (UserId j = 0; j < users_.size(); ++j) {
    const std::span<const ServerId> reach = radio_env_.reach(j);
    const std::span<double> gains = radio_env_.gains(j);
    for (std::size_t e = 0; e < reach.size(); ++e) {
      gains[e] = pathloss.gain(
          geo::distance_m(servers_[reach[e]].position, positions[j]));
    }
  }
  if (!changed_users_.empty()) index_covered_users();
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
