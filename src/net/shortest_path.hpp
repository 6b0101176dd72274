// Shortest-path costs over the edge graph. Both a single-source Dijkstra and
// an all-pairs solver are provided; the all-pairs matrix backs Eq. (8)'s
// L_{k,o,i} lookups, which the greedy delivery phase evaluates millions of
// times. A matrix can also be repaired in place across an edge delta (the
// fault injector's epoch-to-epoch step) with bit-identical rows.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "net/graph.hpp"

namespace idde::net {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Dijkstra from `source`; returns per-node cost (seconds-per-MB).
[[nodiscard]] std::vector<double> dijkstra(const Graph& graph,
                                           std::size_t source);

/// Reusable scratch for repeated Dijkstra runs: the binary heap's backing
/// store survives across calls, so an n-source sweep (CostMatrix) performs
/// no per-source allocation once the heap has grown to its working size.
struct DijkstraScratch {
  std::vector<std::pair<double, std::size_t>> heap;
};

/// As dijkstra(), but writes the per-node costs into `dist` (size
/// node_count) and reuses `scratch` instead of allocating. Values are
/// identical to dijkstra() — the relaxation order is the same; only the
/// storage differs.
void dijkstra_into(const Graph& graph, std::size_t source,
                   std::span<double> dist, DijkstraScratch& scratch);

/// The edges that differ between two graphs over the same nodes: `removed`
/// are in the old graph only, `added` in the new graph only (a multiset
/// difference, so parallel edges count separately).
struct EdgeDelta {
  std::span<const Edge> removed;
  std::span<const Edge> added;
};

/// True when every weight w of `graph` is finite and absorption-free:
/// fl(d + w) > d for any path cost d the graph can produce. This is the
/// precondition of repair_row (DESIGN.md §10); checked as
/// w_min > 0 and w_min > w_max * (n + 1) * 2^-50.
[[nodiscard]] bool absorption_free(const Graph& graph);

/// Reusable scratch for repair_row. `mark` is all-clear between calls; the
/// other vectors are per-call working sets that keep their capacity.
struct RepairScratch {
  DijkstraScratch dijkstra;                              ///< the heap pass
  std::vector<std::pair<double, std::size_t>> suspects;  ///< old-cost heap
  std::vector<std::uint8_t> mark;     ///< per node: clear/suspect/lost
  std::vector<std::size_t> touched;   ///< nodes whose mark is set
};

/// Repairs `dist`, the dijkstra_into row of `source` over the graph before
/// `delta`, into the row over `after` (the graph after `delta`), in place.
/// Removals first: endpoints of removed edges that were tight (the
/// edge carried the node's cost) are checked in increasing old cost; a node
/// whose cost no surviving neighbour reproduces is lost, and its tight
/// children are checked in turn. Lost nodes restart from their cheapest
/// neighbour, added edges seed the nodes they improve, and one heap pass
/// relaxing with strict `<` settles the rest. Precondition: both graphs'
/// weights are absorption-free (absorption_free()); the result is then
/// bit-identical to dijkstra_into over `after`. A row with no tight removed
/// edge and no improving added edge returns in O(|delta|). Returns true when
/// the row needed repair: some node lost its cost or an added edge improved
/// one.
bool repair_row(const Graph& after, std::size_t source, const EdgeDelta& delta,
                std::span<double> dist, RepairScratch& scratch);

/// Dense all-pairs cost matrix (row-major, n*n). Runs n Dijkstras, which is
/// O(n (m + n) log n) — cheaper than Floyd–Warshall for the sparse
/// density*N-link topologies used here. The build writes each source's row
/// in place through one reused scratch heap: no per-source allocation, and
/// bit-identical costs to the naive row-copy build.
class CostMatrix {
 public:
  /// An empty 0x0 matrix, to be filled by rebuild().
  CostMatrix() = default;
  explicit CostMatrix(const Graph& graph);

  /// Recomputes every row over `graph` in place, bit-identical to
  /// CostMatrix(graph). Allocates nothing once the matrix and `scratch`
  /// have held a graph of this size.
  void rebuild(const Graph& graph, DijkstraScratch& scratch);

  /// Turns this matrix, the one of the graph before `delta`, into the
  /// matrix over `after` (the graph after `delta`) by repairing every row
  /// in place with repair_row. Same precondition and the same bit-identical
  /// result as CostMatrix(after). Adds the number of rows repair_row
  /// changed to `rows_repaired`.
  void repair(const Graph& after, const EdgeDelta& delta,
              RepairScratch& scratch, std::size_t& rows_repaired);

  /// Seconds-per-MB of the cheapest route from `from` to `to`.
  [[nodiscard]] double cost(std::size_t from, std::size_t to) const {
    return costs_[from * n_ + to];
  }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

 private:
  std::size_t n_ = 0;
  std::vector<double> costs_;
};

/// An explicit route: the node sequence of a cheapest path.
struct Route {
  double cost = kUnreachable;       ///< seconds-per-MB along the path
  std::vector<std::size_t> nodes;   ///< from .. to (empty if unreachable)

  [[nodiscard]] std::size_t hops() const noexcept {
    return nodes.empty() ? 0 : nodes.size() - 1;
  }
};

/// Reconstructs one cheapest route (migration reports use the hop count;
/// the metrics layers only need CostMatrix).
[[nodiscard]] Route shortest_route(const Graph& graph, std::size_t from,
                                   std::size_t to);

}  // namespace idde::net
