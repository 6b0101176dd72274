// ProblemInstance: one fully materialised IDDE problem — servers, users,
// data catalogue, requests, the radio environment and the delivery-latency
// model. Instances are immutable once built; every solver consumes them
// through const references, so repetitions can share an instance across
// threads safely.
#pragma once

#include <memory>
#include <vector>

#include "model/entities.hpp"
#include "model/request_matrix.hpp"
#include "net/graph.hpp"
#include "net/latency.hpp"
#include "radio/interference.hpp"

namespace idde::model {

/// Relative slack on the disc-meeting test, so floating-point ties in the
/// triangle inequality cannot drop a pair of servers that co-cover a user.
inline constexpr double kDiscSlack = 1e-9;

/// True when the coverage discs of `a` and `b` meet: their distance is at
/// most r_a + r_b (with kDiscSlack). Two servers covering a common user
/// always meet, so nbr(o) = {i : discs of i and o meet} satisfies the
/// radio environment's closure invariant.
[[nodiscard]] bool coverage_discs_meet(const EdgeServer& a,
                                       const EdgeServer& b);

/// nbr(o) for every server, ascending, by an all-pairs scan (N^2 disc
/// tests; the instance builder and the v1 reader both use it).
[[nodiscard]] std::vector<std::vector<ServerId>> coverage_neighbours(
    const std::vector<EdgeServer>& servers);

/// V_j for every user: the servers i with distance_m(i, j) <= r_i,
/// ascending. A geo::SpatialGrid over the server positions narrows each
/// user's candidates to the discs of the largest radius, so the cost is
/// O(M * local servers) rather than N * M distance tests; the instance
/// builder and the reader both use it. Positions and radii must be finite
/// and radii >= 0 (the reader rejects anything else first).
[[nodiscard]] std::vector<std::vector<ServerId>> coverage_sets(
    const std::vector<EdgeServer>& servers, const std::vector<User>& users);

class ProblemInstance {
 public:
  ProblemInstance(std::vector<EdgeServer> servers, std::vector<User> users,
                  std::vector<DataItem> data, RequestMatrix requests,
                  net::Graph graph, net::DeliveryLatencyModel latency,
                  radio::RadioEnvironment radio_env);

  [[nodiscard]] std::size_t server_count() const noexcept {
    return servers_.size();
  }
  [[nodiscard]] std::size_t user_count() const noexcept {
    return users_.size();
  }
  [[nodiscard]] std::size_t data_count() const noexcept {
    return data_.size();
  }

  [[nodiscard]] const EdgeServer& server(ServerId i) const {
    return servers_[i];
  }
  [[nodiscard]] const User& user(UserId j) const { return users_[j]; }
  [[nodiscard]] const DataItem& data(DataId k) const { return data_[k]; }

  [[nodiscard]] const std::vector<EdgeServer>& servers() const noexcept {
    return servers_;
  }
  [[nodiscard]] const std::vector<User>& users() const noexcept {
    return users_;
  }
  [[nodiscard]] const std::vector<DataItem>& data_items() const noexcept {
    return data_;
  }

  [[nodiscard]] const RequestMatrix& requests() const noexcept {
    return requests_;
  }
  [[nodiscard]] const net::Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] const net::DeliveryLatencyModel& latency() const noexcept {
    return latency_;
  }
  [[nodiscard]] const radio::RadioEnvironment& radio_env() const noexcept {
    return radio_env_;
  }

  /// V_j: servers covering user j (ascending ids).
  [[nodiscard]] const std::vector<ServerId>& covering_servers(UserId j) const {
    return radio_env_.covering_servers[j];
  }
  /// U_i: users covered by server i (ascending ids).
  [[nodiscard]] const std::vector<UserId>& covered_users(ServerId i) const {
    return covered_users_[i];
  }

  /// Total reserved storage sum_i A_i (MB).
  [[nodiscard]] double total_storage_mb() const noexcept {
    return total_storage_mb_;
  }
  /// max_k s_k (MB); 0 for an empty catalogue.
  [[nodiscard]] double max_data_size_mb() const noexcept {
    return max_data_size_mb_;
  }

 private:
  std::vector<EdgeServer> servers_;
  std::vector<User> users_;
  std::vector<DataItem> data_;
  RequestMatrix requests_;
  net::Graph graph_;
  net::DeliveryLatencyModel latency_;
  radio::RadioEnvironment radio_env_;
  std::vector<std::vector<UserId>> covered_users_;
  double total_storage_mb_ = 0.0;
  double max_data_size_mb_ = 0.0;
};

}  // namespace idde::model
