#include "oracles/floyd_warshall.hpp"

#include <algorithm>

#include "net/shortest_path.hpp"

namespace idde::oracle {

std::vector<double> floyd_warshall(const net::Graph& graph) {
  const std::size_t n = graph.node_count();
  std::vector<double> dist(n * n, net::kUnreachable);
  for (std::size_t i = 0; i < n; ++i) {
    dist[i * n + i] = 0.0;
    for (const net::Neighbor& nb : graph.neighbors(i)) {
      dist[i * n + nb.node] = std::min(dist[i * n + nb.node], nb.weight);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dik = dist[i * n + k];
      if (dik == net::kUnreachable) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const double through = dik + dist[k * n + j];
        if (through < dist[i * n + j]) dist[i * n + j] = through;
      }
    }
  }
  return dist;
}

}  // namespace idde::oracle
