#include "net/graph.hpp"

#include <vector>

#include "util/assert.hpp"

namespace idde::net {

Graph::Graph(std::size_t node_count, const std::vector<Edge>& edges)
    : node_count_(node_count) {
  assign(edges);
}

void Graph::assign(std::span<const Edge> edges) {
  // offsets_[i + 1] counts node i's degree, then the prefix sums turn
  // offsets_[i] into node i's first slot. Placing each edge advances its
  // endpoints' slots, which leaves offsets_[i] at node i + 1's first slot;
  // shifting right by one restores the starts.
  offsets_.assign(node_count_ + 1, 0);
  for (const Edge& e : edges) {
    IDDE_EXPECTS(e.from < node_count_ && e.to < node_count_);
    IDDE_EXPECTS(e.from != e.to);
    IDDE_EXPECTS(e.weight >= 0.0);
    ++offsets_[e.from + 1];
    ++offsets_[e.to + 1];
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    offsets_[i] += offsets_[i - 1];
  }
  adjacency_.resize(edges.size() * 2);
  for (const Edge& e : edges) {
    adjacency_[offsets_[e.from]++] = Neighbor{e.to, e.weight};
    adjacency_[offsets_[e.to]++] = Neighbor{e.from, e.weight};
  }
  for (std::size_t i = node_count_; i > 0; --i) offsets_[i] = offsets_[i - 1];
  offsets_[0] = 0;
}

std::span<const Neighbor> Graph::neighbors(std::size_t node) const {
  IDDE_EXPECTS(node < node_count_);
  return {adjacency_.data() + offsets_[node],
          offsets_[node + 1] - offsets_[node]};
}

bool Graph::is_connected() const {
  if (node_count_ == 0) return true;
  std::vector<bool> seen(node_count_, false);
  std::vector<std::size_t> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const std::size_t node = stack.back();
    stack.pop_back();
    for (const Neighbor& nb : neighbors(node)) {
      if (!seen[nb.node]) {
        seen[nb.node] = true;
        ++visited;
        stack.push_back(nb.node);
      }
    }
  }
  return visited == node_count_;
}

}  // namespace idde::net
