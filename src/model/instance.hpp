// ProblemInstance: one fully materialised IDDE problem — servers, users,
// data catalogue, requests, the radio environment and the delivery-latency
// model. An instance has one mutator, set_user_positions, which only its
// owner calls and only between solves (mobility moves users; everything
// else is fixed at build time). Every solver consumes instances through
// const references, so a solve never mutates one and repetitions can share
// an instance across threads safely.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "geo/coverage_index.hpp"
#include "model/entities.hpp"
#include "model/request_matrix.hpp"
#include "net/graph.hpp"
#include "net/latency.hpp"
#include "radio/interference.hpp"
#include "radio/pathloss.hpp"

namespace idde::model {

/// Relative slack on disc tests (geo::kDiscSlack): on the disc-meeting
/// test it keeps floating-point ties in the triangle inequality from
/// dropping a pair of servers that co-cover a user.
using geo::kDiscSlack;

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

/// The static coverage index over the servers' discs (position, r_i): the
/// one V_j implementation. Its covering(p) is V_j of a user at p, the
/// servers i with distance_m(i, p) <= r_i, ascending, from one cell lookup
/// and that exact filter. Positions and radii must be finite and radii
/// >= 0 (the reader and the ProblemInstance constructor reject anything
/// else first).
[[nodiscard]] geo::CoverageIndex coverage_index(
    const std::vector<EdgeServer>& servers);

/// Overwrites `covering` with V_j for every user through one
/// coverage_index(servers). Every row keeps its capacity. The instance
/// builder and the reader use it; ProblemInstance keeps its own index for
/// set_user_positions. User positions must be finite.
void coverage_sets(const std::vector<EdgeServer>& servers,
                   const std::vector<User>& users,
                   std::vector<std::vector<ServerId>>& covering);

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

  /// Moves user j to `positions[j]` and re-derives everything that depends
  /// on user positions, in place. V_j comes from the instance's static
  /// coverage index (coverage_index, built by the first call). Only users
  /// whose V_j changed get reach(j) re-derived
  /// (radio::RadioEnvironment::reindex_reach); every other row is copied,
  /// and U_i is rebuilt only when some V_j changed. Every user gets its
  /// gains g_{i,j} = pathloss.gain(distance) for i in reach(j) rewritten,
  /// unshadowed, the arithmetic of the builder's sigma = 0 branch. The
  /// result is bit-identical to a full rebuild. Counts the users whose V_j
  /// changed in `model.coverage_rows_rederived_total`. Every buffer keeps
  /// its capacity, so a steady-state update allocates nothing per user.
  /// `positions.size()` must equal user_count() and every position must be
  /// finite. The closure invariant then holds at any positions provided
  /// nbr(o) lists every server whose disc meets o's, as coverage_neighbours
  /// derives it for the builder, the v1 reader and every file the writer
  /// produces. Only the instance's owner calls this, between solves:
  /// solvers and profiles hold const references and pointers that must not
  /// see the world change under them.
  void set_user_positions(const std::vector<geo::Point>& positions,
                          const radio::PathLossModel& pathloss);

  /// Total reserved storage sum_i A_i (MB).
  [[nodiscard]] double total_storage_mb() const noexcept {
    return total_storage_mb_;
  }
  /// max_k s_k (MB); 0 for an empty catalogue.
  [[nodiscard]] double max_data_size_mb() const noexcept {
    return max_data_size_mb_;
  }

 private:
  /// Rebuilds U_i from the coverage sets, reusing each row's capacity.
  void index_covered_users();

  std::vector<EdgeServer> servers_;
  std::vector<User> users_;
  std::vector<DataItem> data_;
  RequestMatrix requests_;
  net::Graph graph_;
  net::DeliveryLatencyModel latency_;
  radio::RadioEnvironment radio_env_;
  std::vector<std::vector<UserId>> covered_users_;
  /// set_user_positions state, made by its first call and kept across
  /// calls, so an instance whose users never move pays nothing for it: the
  /// coverage index over servers_ (which never move), one user's new V_j,
  /// the ascending users whose V_j changed, and the spare reach CSR.
  std::optional<geo::CoverageIndex> coverage_index_;
  std::vector<ServerId> row_scratch_;
  std::vector<UserId> changed_users_;
  std::vector<std::size_t> spare_reach_offset_;
  std::vector<std::size_t> spare_reach_server_;
  double total_storage_mb_ = 0.0;
  double max_data_size_mb_ = 0.0;
};

}  // namespace idde::model
