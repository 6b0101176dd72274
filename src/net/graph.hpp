// Undirected weighted graph over edge servers, stored as CSR adjacency.
// Edge weights are transfer costs in seconds-per-megabyte (1 / link speed),
// so a shortest path in this graph is the fastest multi-hop transfer route.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace idde::net {

struct Edge {
  std::size_t from = 0;
  std::size_t to = 0;
  double weight = 0.0;  ///< seconds per MB across this link
};

struct Neighbor {
  std::size_t node = 0;
  double weight = 0.0;
};

class Graph {
 public:
  /// Builds from an undirected edge list; parallel edges are allowed and
  /// resolved by the shortest-path layer (the cheaper one wins naturally).
  Graph(std::size_t node_count, const std::vector<Edge>& edges);

  /// Replaces the edge set in place (same nodes), with the adjacency order
  /// the constructor gives `edges`. Reuses the storage's capacity, so a
  /// graph rebuilt from at most as many edges as it once held allocates
  /// nothing.
  void assign(std::span<const Edge> edges);

  [[nodiscard]] std::size_t node_count() const noexcept { return node_count_; }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return adjacency_.size() / 2;
  }

  [[nodiscard]] std::span<const Neighbor> neighbors(std::size_t node) const;

  /// True when every node is reachable from node 0 (or the graph is empty).
  [[nodiscard]] bool is_connected() const;

 private:
  std::size_t node_count_;
  std::vector<std::size_t> offsets_;   // size node_count_ + 1
  std::vector<Neighbor> adjacency_;    // both directions of each edge
};

}  // namespace idde::net
