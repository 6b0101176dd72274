#include "net/shortest_path.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/assert.hpp"

namespace idde::net {

std::vector<double> dijkstra(const Graph& graph, std::size_t source) {
  std::vector<double> dist(graph.node_count());
  DijkstraScratch scratch;
  dijkstra_into(graph, source, dist, scratch);
  return dist;
}

void dijkstra_into(const Graph& graph, std::size_t source,
                   std::span<double> dist, DijkstraScratch& scratch) {
  IDDE_EXPECTS(source < graph.node_count());
  IDDE_EXPECTS(dist.size() == graph.node_count());
  std::fill(dist.begin(), dist.end(), kUnreachable);
  dist[source] = 0.0;
  // Explicit push_heap/pop_heap on the scratch vector of (distance, node)
  // pairs — identical pop order to std::priority_queue with std::greater<>,
  // but the backing store is the caller's and survives across calls.
  auto& heap = scratch.heap;
  heap.clear();
  heap.reserve(graph.node_count());
  heap.emplace_back(0.0, source);
  while (!heap.empty()) {
    const auto [d, node] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    heap.pop_back();
    if (d > dist[node]) continue;  // stale entry
    for (const Neighbor& nb : graph.neighbors(node)) {
      const double candidate = d + nb.weight;
      if (candidate < dist[nb.node]) {
        dist[nb.node] = candidate;
        heap.emplace_back(candidate, nb.node);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }
}

CostMatrix::CostMatrix(const Graph& graph) {
  DijkstraScratch scratch;
  rebuild(graph, scratch);
}

void CostMatrix::rebuild(const Graph& graph, DijkstraScratch& scratch) {
  n_ = graph.node_count();
  costs_.resize(n_ * n_);
  const std::span<double> all(costs_);
  for (std::size_t source = 0; source < n_; ++source) {
    dijkstra_into(graph, source, all.subspan(source * n_, n_), scratch);
  }
}

void CostMatrix::repair(const Graph& after, const EdgeDelta& delta,
                        RepairScratch& scratch, std::size_t& rows_repaired) {
  IDDE_EXPECTS(n_ == after.node_count());
  const std::span<double> all(costs_);
  for (std::size_t source = 0; source < n_; ++source) {
    if (repair_row(after, source, delta, all.subspan(source * n_, n_),
                   scratch)) {
      ++rows_repaired;
    }
  }
}

bool absorption_free(const Graph& graph) {
  double w_min = kUnreachable;
  double w_max = 0.0;
  for (std::size_t node = 0; node < graph.node_count(); ++node) {
    for (const Neighbor& nb : graph.neighbors(node)) {
      w_min = std::min(w_min, nb.weight);
      w_max = std::max(w_max, nb.weight);
    }
  }
  if (w_max == 0.0) return w_min == kUnreachable;  // no edges at all
  // Every finite row cost sums at most n - 1 weights, so it stays below
  // (n + 1) * w_max even with rounding; a weight above 2^-53 of that can
  // never be absorbed. 2^-50 leaves a factor-8 margin.
  const double bound = w_max * static_cast<double>(graph.node_count() + 1) *
                       std::ldexp(1.0, -50);
  return std::isfinite(w_max) && w_min > 0.0 && w_min > bound;
}

namespace {

enum : std::uint8_t { kClear = 0, kSuspect = 1, kLost = 2 };

/// True when `parent`'s cost plus `weight` reproduces `child`'s exactly,
/// in the same fl(d + w) expression dijkstra_into relaxes with.
bool tight(std::span<const double> dist, std::size_t parent, double weight,
           std::size_t child) {
  return dist[parent] != kUnreachable && dist[parent] + weight == dist[child];
}

void push_min(std::vector<std::pair<double, std::size_t>>& heap, double key,
              std::size_t node) {
  heap.emplace_back(key, node);
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

std::pair<double, std::size_t> pop_min(
    std::vector<std::pair<double, std::size_t>>& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  const auto top = heap.back();
  heap.pop_back();
  return top;
}

}  // namespace

bool repair_row(const Graph& after, std::size_t source, const EdgeDelta& delta,
                std::span<double> dist, RepairScratch& scratch) {
  const std::size_t n = after.node_count();
  IDDE_EXPECTS(source < n);
  IDDE_EXPECTS(dist.size() == n);
  auto& mark = scratch.mark;
  auto& suspects = scratch.suspects;
  auto& touched = scratch.touched;
  if (mark.size() != n) {
    // Every node is marked at most once per call.
    mark.assign(n, kClear);
    suspects.reserve(n);
    touched.reserve(n);
  }
  suspects.clear();
  touched.clear();
  const auto suspect = [&](std::size_t node) {
    if (mark[node] != kClear) return;
    mark[node] = kSuspect;
    touched.push_back(node);
    push_min(suspects, dist[node], node);
  };
  for (const Edge& e : delta.removed) {
    if (tight(dist, e.from, e.weight, e.to)) suspect(e.to);
    if (tight(dist, e.to, e.weight, e.from)) suspect(e.from);
  }
  const auto improves = [&](const Edge& e) {
    return dist[e.from] + e.weight < dist[e.to] ||
           dist[e.to] + e.weight < dist[e.from];
  };
  if (suspects.empty() &&
      std::none_of(delta.added.begin(), delta.added.end(), improves)) {
    return false;
  }

  // Removals, in increasing old cost: a supporting neighbour has a strictly
  // smaller cost, so it has been decided before the node it supports.
  std::size_t lost = 0;
  while (!suspects.empty()) {
    const std::size_t node = pop_min(suspects).second;
    const auto supports = [&](const Neighbor& nb) {
      return mark[nb.node] != kLost && tight(dist, nb.node, nb.weight, node);
    };
    const auto around = after.neighbors(node);
    if (std::any_of(around.begin(), around.end(), supports)) continue;
    mark[node] = kLost;
    ++lost;
    for (const Neighbor& nb : around) {
      if (tight(dist, node, nb.weight, nb.node)) suspect(nb.node);
    }
  }

  // Lost nodes restart from their cheapest neighbour, added edges seed the
  // nodes they improve, and one pass settles the rest.
  auto& heap = scratch.dijkstra.heap;
  heap.clear();
  const auto relax = [&](std::size_t node, double candidate) {
    if (candidate < dist[node]) {
      dist[node] = candidate;
      push_min(heap, candidate, node);
    }
  };
  for (const std::size_t node : touched) {
    if (mark[node] == kLost) dist[node] = kUnreachable;
  }
  for (const std::size_t node : touched) {
    if (mark[node] != kLost) continue;
    double cheapest = kUnreachable;
    for (const Neighbor& nb : after.neighbors(node)) {
      cheapest = std::min(cheapest, dist[nb.node] + nb.weight);
    }
    relax(node, cheapest);
  }
  for (const std::size_t node : touched) mark[node] = kClear;
  for (const Edge& e : delta.added) {
    relax(e.to, dist[e.from] + e.weight);
    relax(e.from, dist[e.to] + e.weight);
  }
  const bool changed = lost > 0 || !heap.empty();
  while (!heap.empty()) {
    const auto [d, node] = pop_min(heap);
    if (d > dist[node]) continue;  // stale entry
    for (const Neighbor& nb : after.neighbors(node)) {
      relax(nb.node, d + nb.weight);
    }
  }
  return changed;
}

Route shortest_route(const Graph& graph, std::size_t from, std::size_t to) {
  IDDE_EXPECTS(from < graph.node_count());
  IDDE_EXPECTS(to < graph.node_count());
  // Dijkstra with parent tracking.
  std::vector<double> dist(graph.node_count(), kUnreachable);
  std::vector<std::size_t> parent(graph.node_count(),
                                  static_cast<std::size_t>(-1));
  dist[from] = 0.0;
  using Item = std::pair<double, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  queue.emplace(0.0, from);
  while (!queue.empty()) {
    const auto [d, node] = queue.top();
    queue.pop();
    if (d > dist[node]) continue;
    if (node == to) break;
    for (const Neighbor& nb : graph.neighbors(node)) {
      const double candidate = d + nb.weight;
      if (candidate < dist[nb.node]) {
        dist[nb.node] = candidate;
        parent[nb.node] = node;
        queue.emplace(candidate, nb.node);
      }
    }
  }
  Route route;
  if (dist[to] == kUnreachable) return route;
  route.cost = dist[to];
  for (std::size_t node = to;; node = parent[node]) {
    route.nodes.push_back(node);  // lint: alloc-ok(the returned route)
    if (node == from) break;
  }
  std::reverse(route.nodes.begin(), route.nodes.end());
  return route;
}

}  // namespace idde::net
