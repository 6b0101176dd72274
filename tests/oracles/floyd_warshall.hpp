// Test/bench oracle for the all-pairs cost matrix: Floyd–Warshall.
//
// O(n^3) relaxation over every intermediate node, no priority queue. The
// Dijkstra-based net::CostMatrix must agree with it on every pair;
// tests/test_net.cpp holds it to that and bench/perf_kernels times the two.
#pragma once

#include <vector>

#include "net/graph.hpp"

namespace idde::oracle {

/// Row-major n x n seconds-per-MB of the cheapest route between every pair
/// of nodes (net::kUnreachable where none exists).
[[nodiscard]] std::vector<double> floyd_warshall(const net::Graph& graph);

}  // namespace idde::oracle
