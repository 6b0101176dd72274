#include "model/instance.hpp"

#include <algorithm>

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
        neighbours[o].push_back(i);
      }
    }
  }
  return neighbours;
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

  covered_users_.resize(servers_.size());
  for (UserId j = 0; j < users_.size(); ++j) {
    for (const ServerId i : radio_env_.covering_servers[j]) {
      covered_users_[i].push_back(j);
    }
  }
  for (const EdgeServer& s : servers_) {
    util::validate(s.storage_mb >= 0.0, "instance: negative server storage");
    total_storage_mb_ += s.storage_mb;
  }
  for (const DataItem& d : data_) {
    util::validate(d.size_mb > 0.0, "instance: non-positive data size");
    max_data_size_mb_ = std::max(max_data_size_mb_, d.size_mb);
  }
}

}  // namespace idde::model
