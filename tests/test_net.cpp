// Graph, topology generation, shortest paths, delivery latency, WAN model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "net/graph.hpp"
#include "net/graph_gen.hpp"
#include "net/latency.hpp"
#include "net/shortest_path.hpp"
#include "net/wan_profile.hpp"

namespace {

using namespace idde::net;
using idde::util::Rng;

TEST(Graph, BasicAdjacency) {
  const Graph g(3, {{0, 1, 1.0}, {1, 2, 2.0}});
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(1).size(), 2u);
  EXPECT_EQ(g.neighbors(0)[0].node, 1u);
  EXPECT_DOUBLE_EQ(g.neighbors(0)[0].weight, 1.0);
}

TEST(Graph, ConnectivityDetection) {
  EXPECT_TRUE(Graph(1, {}).is_connected());
  EXPECT_TRUE(Graph(0, {}).is_connected());
  EXPECT_FALSE(Graph(2, {}).is_connected());
  EXPECT_TRUE(Graph(3, {{0, 1, 1}, {1, 2, 1}}).is_connected());
  EXPECT_FALSE(Graph(4, {{0, 1, 1}, {2, 3, 1}}).is_connected());
}

TEST(Dijkstra, LinearChain) {
  const Graph g(4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 4.0}});
  const auto d = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_DOUBLE_EQ(d[2], 3.0);
  EXPECT_DOUBLE_EQ(d[3], 7.0);
}

TEST(Dijkstra, PrefersCheaperDetour) {
  // Direct 0-2 costs 10, detour through 1 costs 3.
  const Graph g(3, {{0, 2, 10.0}, {0, 1, 1.0}, {1, 2, 2.0}});
  EXPECT_DOUBLE_EQ(dijkstra(g, 0)[2], 3.0);
}

TEST(Dijkstra, UnreachableIsInfinity) {
  const Graph g(3, {{0, 1, 1.0}});
  EXPECT_EQ(dijkstra(g, 0)[2], kUnreachable);
}

TEST(Dijkstra, ParallelEdgesUseCheapest) {
  const Graph g(2, {{0, 1, 5.0}, {0, 1, 2.0}});
  EXPECT_DOUBLE_EQ(dijkstra(g, 0)[1], 2.0);
}

TEST(CostMatrix, MatchesFloydWarshallOnRandomGraphs) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 5 + rng.index(20);
    TopologyParams params{.density = 1.0 + rng.uniform() * 2.0,
                          .min_speed_mbps = 2000,
                          .max_speed_mbps = 6000};
    const Graph g = generate_topology_graph(n, params, rng);
    const CostMatrix matrix(g);
    const auto reference = floyd_warshall(g);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(matrix.cost(i, j), reference[i * n + j], 1e-12);
      }
    }
  }
}

TEST(CostMatrix, SymmetricAndZeroDiagonal) {
  Rng rng(32);
  const Graph g = generate_topology_graph(15, {}, rng);
  const CostMatrix m(g);
  for (std::size_t i = 0; i < 15; ++i) {
    EXPECT_DOUBLE_EQ(m.cost(i, i), 0.0);
    for (std::size_t j = 0; j < 15; ++j) {
      EXPECT_DOUBLE_EQ(m.cost(i, j), m.cost(j, i));
    }
  }
}

TEST(TopologyGen, AlwaysConnected) {
  Rng rng(33);
  for (const std::size_t n : {1u, 2u, 5u, 20u, 50u}) {
    for (const double density : {0.0, 0.5, 1.0, 3.0}) {
      TopologyParams params{.density = density};
      const Graph g = generate_topology_graph(n, params, rng);
      EXPECT_TRUE(g.is_connected()) << "n=" << n << " density=" << density;
    }
  }
}

TEST(TopologyGen, LinkCountFollowsDensity) {
  Rng rng(34);
  const std::size_t n = 30;
  for (const double density : {1.0, 2.0, 3.0}) {
    TopologyParams params{.density = density};
    const Graph g = generate_topology_graph(n, params, rng);
    EXPECT_EQ(g.edge_count(),
              static_cast<std::size_t>(std::llround(density * n)));
  }
}

TEST(TopologyGen, LinkCountCappedAtCompleteGraph) {
  Rng rng(35);
  TopologyParams params{.density = 100.0};
  const Graph g = generate_topology_graph(5, params, rng);
  EXPECT_EQ(g.edge_count(), 10u);  // C(5,2)
}

TEST(TopologyGen, WeightsWithinSpeedRange) {
  Rng rng(36);
  TopologyParams params{
      .density = 2.0, .min_speed_mbps = 2000, .max_speed_mbps = 6000};
  const auto edges = generate_topology(40, params, rng);
  for (const Edge& e : edges) {
    EXPECT_GE(e.weight, 1.0 / 6000.0);
    EXPECT_LE(e.weight, 1.0 / 2000.0);
  }
}

TEST(DeliveryLatency, CloudAndEdgeTransfers) {
  const Graph g(3, {{0, 1, 1.0 / 4000.0}, {1, 2, 1.0 / 4000.0}});
  DeliveryLatencyModel model(CostMatrix(g), 600.0);
  EXPECT_DOUBLE_EQ(model.cloud_transfer_seconds(60.0), 0.1);
  EXPECT_DOUBLE_EQ(model.edge_transfer_seconds(0, 0, 60.0), 0.0);
  EXPECT_NEAR(model.edge_transfer_seconds(0, 1, 60.0), 0.015, 1e-12);
  EXPECT_NEAR(model.edge_transfer_seconds(0, 2, 60.0), 0.030, 1e-12);
}

TEST(DeliveryLatency, BestDeliveryTakesMinIncludingCloud) {
  const Graph g(2, {{0, 1, 1.0 / 2000.0}});
  DeliveryLatencyModel model(CostMatrix(g), 600.0);
  const std::vector<std::size_t> hosts{0};
  // 30 MB: edge hop 15 ms, cloud 50 ms -> edge wins.
  EXPECT_NEAR(model.best_delivery_seconds(hosts, 1, 30.0), 0.015, 1e-12);
  // No hosts -> cloud.
  EXPECT_NEAR(model.best_delivery_seconds({}, 1, 30.0), 0.05, 1e-12);
  // Local host -> zero.
  EXPECT_DOUBLE_EQ(model.best_delivery_seconds(hosts, 0, 30.0), 0.0);
}

TEST(DeliveryLatency, CloudCapsDisconnectedTransfers) {
  const Graph g(2, {});  // no links: edge transfer impossible
  DeliveryLatencyModel model(CostMatrix(g), 600.0);
  const std::vector<std::size_t> hosts{0};
  EXPECT_NEAR(model.best_delivery_seconds(hosts, 1, 30.0), 0.05, 1e-12);
}

TEST(WanProfile, TargetsMatchFigure1) {
  const auto targets = figure1_targets();
  ASSERT_EQ(targets.size(), 4u);
  EXPECT_EQ(targets[0].name, "Edge");
  EXPECT_EQ(targets[1].name, "Singapore");
  EXPECT_EQ(targets[2].name, "London");
  EXPECT_EQ(targets[3].name, "Frankfurt");
}

TEST(WanProfile, SamplesAboveBaseRtt) {
  Rng rng(37);
  for (const WanTarget& t : figure1_targets()) {
    for (int h = 0; h < 168; h += 7) {
      EXPECT_GE(sample_rtt_ms(t, h, rng), t.base_rtt_ms);
    }
  }
}

TEST(WanProfile, WeeklyAveragesPreserveEdgeCloudGap) {
  const auto averages = run_figure1_protocol(1234);
  ASSERT_EQ(averages.size(), 4u);
  const double edge = averages[0].mean_rtt_ms;
  for (std::size_t i = 1; i < averages.size(); ++i) {
    // The motivational claim of Fig. 1: cloud RTT is >> edge RTT.
    EXPECT_GT(averages[i].mean_rtt_ms, 10.0 * edge);
    EXPECT_LE(averages[i].min_rtt_ms, averages[i].mean_rtt_ms);
    EXPECT_GE(averages[i].max_rtt_ms, averages[i].mean_rtt_ms);
  }
  EXPECT_LT(edge, 10.0);
}

TEST(WanProfile, DeterministicBySeed) {
  const auto a = run_figure1_protocol(99);
  const auto b = run_figure1_protocol(99);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].mean_rtt_ms, b[i].mean_rtt_ms);
  }
}

}  // namespace

namespace {

using namespace idde::net;
using idde::util::Rng;

TEST(ShortestRoute, ChainEndpointsAndHops) {
  const Graph g(4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 4.0}});
  const Route route = shortest_route(g, 0, 3);
  EXPECT_DOUBLE_EQ(route.cost, 7.0);
  ASSERT_EQ(route.nodes.size(), 4u);
  EXPECT_EQ(route.nodes.front(), 0u);
  EXPECT_EQ(route.nodes.back(), 3u);
  EXPECT_EQ(route.hops(), 3u);
}

TEST(ShortestRoute, SelfRouteIsTrivial) {
  const Graph g(2, {{0, 1, 1.0}});
  const Route route = shortest_route(g, 1, 1);
  EXPECT_DOUBLE_EQ(route.cost, 0.0);
  ASSERT_EQ(route.nodes.size(), 1u);
  EXPECT_EQ(route.hops(), 0u);
}

TEST(ShortestRoute, UnreachableIsEmpty) {
  const Graph g(3, {{0, 1, 1.0}});
  const Route route = shortest_route(g, 0, 2);
  EXPECT_EQ(route.cost, kUnreachable);
  EXPECT_TRUE(route.nodes.empty());
}

TEST(ShortestRoute, CostMatchesCostMatrixOnRandomGraphs) {
  Rng rng(71);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = generate_topology_graph(12, {.density = 1.5}, rng);
    const CostMatrix matrix(g);
    for (std::size_t a = 0; a < 12; ++a) {
      for (std::size_t b = 0; b < 12; ++b) {
        const Route route = shortest_route(g, a, b);
        EXPECT_NEAR(route.cost, matrix.cost(a, b), 1e-12);
        // The node sequence must be a real path with the claimed cost.
        if (!route.nodes.empty()) {
          double walked = 0.0;
          for (std::size_t s = 0; s + 1 < route.nodes.size(); ++s) {
            double best_edge = kUnreachable;
            for (const Neighbor& nb : g.neighbors(route.nodes[s])) {
              if (nb.node == route.nodes[s + 1]) {
                best_edge = std::min(best_edge, nb.weight);
              }
            }
            ASSERT_NE(best_edge, kUnreachable);
            walked += best_edge;
          }
          EXPECT_NEAR(walked, route.cost, 1e-12);
        }
      }
    }
  }
}

}  // namespace
