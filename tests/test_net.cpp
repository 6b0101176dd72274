// Graph, topology generation, shortest paths, delivery latency, WAN model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "net/graph.hpp"
#include "net/graph_gen.hpp"
#include "net/latency.hpp"
#include "net/shortest_path.hpp"
#include "net/wan_profile.hpp"
#include "oracles/eq8_reference.hpp"
#include "oracles/floyd_warshall.hpp"

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
    const auto reference = idde::oracle::floyd_warshall(g);
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

// Eq. 8's min itself lives in core::Eq8Resolver; these pin the plain
// replication reference it is checked against (tests/test_fault.cpp).
TEST(DeliveryLatency, BestDeliveryTakesMinIncludingCloud) {
  using idde::oracle::best_delivery_seconds;
  const Graph g(2, {{0, 1, 1.0 / 2000.0}});
  DeliveryLatencyModel model(CostMatrix(g), 600.0);
  const std::vector<std::size_t> hosts{0};
  // 30 MB: edge hop 15 ms, cloud 50 ms -> edge wins.
  EXPECT_NEAR(best_delivery_seconds(model, hosts, 1, 30.0), 0.015, 1e-12);
  // No hosts -> cloud.
  EXPECT_NEAR(best_delivery_seconds(model, {}, 1, 30.0), 0.05, 1e-12);
  // Local host -> zero.
  EXPECT_DOUBLE_EQ(best_delivery_seconds(model, hosts, 0, 30.0), 0.0);
}

TEST(DeliveryLatency, CloudCapsDisconnectedTransfers) {
  using idde::oracle::best_delivery_seconds;
  const Graph g(2, {});  // no links: edge transfer impossible
  DeliveryLatencyModel model(CostMatrix(g), 600.0);
  const std::vector<std::size_t> hosts{0};
  EXPECT_NEAR(best_delivery_seconds(model, hosts, 1, 30.0), 0.05, 1e-12);
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

// ---- repair_row: bit-identical to a fresh Dijkstra across any delta ------

/// Repairs every source's `before` row across the delta and checks it
/// against dijkstra_into over `after`, comparing bit patterns. Returns the
/// number of rows repair_row reported as changed.
std::size_t expect_repairs_exact(std::size_t n,
                                 const std::vector<Edge>& before_edges,
                                 const std::vector<Edge>& after_edges,
                                 const std::vector<Edge>& removed,
                                 const std::vector<Edge>& added,
                                 RepairScratch& scratch) {
  const Graph before(n, before_edges);
  const Graph after(n, after_edges);
  std::size_t changed = 0;
  std::vector<double> row(n);
  std::vector<double> fresh(n);
  DijkstraScratch dijkstra;
  for (std::size_t source = 0; source < n; ++source) {
    dijkstra_into(before, source, row, dijkstra);
    if (repair_row(after, source, {removed, added}, row, scratch)) ++changed;
    dijkstra_into(after, source, fresh, dijkstra);
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(row[v]),
                std::bit_cast<std::uint64_t>(fresh[v]))
          << "n=" << n << " source=" << source << " node=" << v << ": "
          << row[v] << " vs " << fresh[v];
    }
  }
  return changed;
}

/// Splits `base` by two on/off masks into the before/after edge lists and
/// the delta between them, all in base order.
struct MaskedDelta {
  std::vector<Edge> before, after, removed, added;
};

MaskedDelta masked_delta(const std::vector<Edge>& base,
                         const std::vector<bool>& was_on,
                         const std::vector<bool>& on) {
  MaskedDelta d;
  for (std::size_t b = 0; b < base.size(); ++b) {
    if (was_on[b]) d.before.push_back(base[b]);
    if (on[b]) d.after.push_back(base[b]);
    if (was_on[b] && !on[b]) d.removed.push_back(base[b]);
    if (!was_on[b] && on[b]) d.added.push_back(base[b]);
  }
  return d;
}

TEST(RepairRow, MatchesFreshDijkstraOnRandomDeltas) {
  Rng rng(91);
  RepairScratch scratch;  // one scratch across every size and call
  std::size_t changed = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 5 + rng.index(146);
    const TopologyParams params{.density = 1.0 + rng.uniform() * 2.0};
    std::vector<Edge> base = generate_topology(n, params, rng);
    // Half the trials use a few coarse weights, so equal-cost paths (and
    // with them alternative supports) are everywhere.
    if (trial % 2 == 1) {
      for (Edge& e : base) {
        e.weight = 0.25 * static_cast<double>(1 + rng.index(4));
      }
    }
    // Parallel copies of some links, cheaper or dearer than the original.
    for (std::size_t c = rng.index(4); c > 0; --c) {
      Edge copy = base[rng.index(base.size())];
      copy.weight *= rng.bernoulli(0.5) ? 0.5 : 2.0;
      base.push_back(copy);
    }
    const double keep = 0.5 + rng.uniform() * 0.5;
    const double flip = rng.uniform() * 0.3;
    std::vector<bool> was_on(base.size());
    std::vector<bool> on(base.size());
    for (std::size_t b = 0; b < base.size(); ++b) {
      was_on[b] = rng.bernoulli(keep);
      on[b] = rng.bernoulli(flip) ? !was_on[b] : was_on[b];
    }
    const MaskedDelta d = masked_delta(base, was_on, on);
    ASSERT_TRUE(absorption_free(Graph(n, base)));
    changed += expect_repairs_exact(n, d.before, d.after, d.removed, d.added,
                                    scratch);
  }
  EXPECT_GT(changed, 0u);  // the deltas really exercised the repair
}

TEST(RepairRow, EverySourceEdgeRemoved) {
  Rng rng(92);
  RepairScratch scratch;
  const std::size_t n = 40;
  const std::vector<Edge> base =
      generate_topology(n, {.density = 2.0}, rng);
  const std::size_t source = 7;
  std::vector<bool> all(base.size(), true);
  std::vector<bool> on(base.size(), true);
  for (std::size_t b = 0; b < base.size(); ++b) {
    if (base[b].from == source || base[b].to == source) on[b] = false;
  }
  const MaskedDelta cut = masked_delta(base, all, on);
  ASSERT_FALSE(cut.removed.empty());
  expect_repairs_exact(n, cut.before, cut.after, cut.removed, cut.added,
                       scratch);
  // And back: the isolated source rejoins.
  const MaskedDelta back = masked_delta(base, on, all);
  expect_repairs_exact(n, back.before, back.after, back.removed, back.added,
                       scratch);

  std::vector<double> row = dijkstra(Graph(n, cut.before), source);
  EXPECT_TRUE(repair_row(Graph(n, cut.after), source,
                         {cut.removed, cut.added}, row, scratch));
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(row[v], v == source ? 0.0 : kUnreachable);
  }
}

TEST(RepairRow, BridgeCutThenReAdded) {
  // Two 4-cliques joined by the bridge 3-4.
  std::vector<Edge> base;
  for (std::size_t half = 0; half < 2; ++half) {
    for (std::size_t a = 0; a < 4; ++a) {
      for (std::size_t b = a + 1; b < 4; ++b) {
        const double weight = 0.5 + 0.25 * static_cast<double>(a);
        base.push_back({half * 4 + a, half * 4 + b, weight});
      }
    }
  }
  const Edge bridge{3, 4, 1.0};
  std::vector<Edge> cut = base;
  base.push_back(bridge);
  RepairScratch scratch;
  EXPECT_GT(expect_repairs_exact(8, base, cut, {bridge}, {}, scratch), 0u);
  EXPECT_GT(expect_repairs_exact(8, cut, base, {}, {bridge}, scratch), 0u);
  std::vector<double> row = dijkstra(Graph(8, base), 0);
  repair_row(Graph(8, cut), 0, {std::vector<Edge>{bridge}, {}}, row, scratch);
  for (std::size_t v = 4; v < 8; ++v) EXPECT_EQ(row[v], kUnreachable);
}

TEST(RepairRow, ParallelEdges) {
  // 0 =(1.0 | 2.0)= 1 - 2, plus a dear detour 0 - 2.
  const Edge cheap{0, 1, 1.0};
  const Edge dear{0, 1, 2.0};
  const Edge tail{1, 2, 1.0};
  const Edge detour{0, 2, 2.5};
  RepairScratch scratch;
  // The cheap copy goes: the dear one still connects, at a higher cost.
  expect_repairs_exact(3, {cheap, dear, tail, detour}, {dear, tail, detour},
                       {cheap}, {}, scratch);
  // The dear copy goes: nothing moves.
  EXPECT_EQ(expect_repairs_exact(3, {cheap, dear, tail, detour},
                                 {cheap, tail, detour}, {dear}, {}, scratch),
            0u);
  // Both go at once, then both come back.
  expect_repairs_exact(3, {cheap, dear, tail, detour}, {tail, detour},
                       {cheap, dear}, {}, scratch);
  expect_repairs_exact(3, {tail, detour}, {cheap, dear, tail, detour}, {},
                       {cheap, dear}, scratch);
  // Equal-weight twins: losing one leaves the other as support.
  EXPECT_EQ(expect_repairs_exact(3, {cheap, cheap, tail}, {cheap, tail},
                                 {cheap}, {}, scratch),
            0u);
}

TEST(RepairRow, SameEndpointsRemovedAndAdded) {
  const std::vector<Edge> ring{{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0},
                               {3, 0, 1.0}};
  RepairScratch scratch;
  for (const double weight : {0.5, 1.0, 1.5, 3.0}) {
    const Edge swapped{1, 2, weight};
    std::vector<Edge> after = {ring[0], ring[2], ring[3], swapped};
    expect_repairs_exact(4, ring, after, {ring[1]}, {swapped}, scratch);
    expect_repairs_exact(4, after, ring, {swapped}, {ring[1]}, scratch);
  }
}

TEST(RepairRow, EmptyOrSlackDeltaChangesNothing) {
  Rng rng(93);
  const std::size_t n = 30;
  const std::vector<Edge> edges = generate_topology(n, {.density = 2.0}, rng);
  const Graph graph(n, edges);
  RepairScratch scratch;
  for (std::size_t source = 0; source < n; ++source) {
    std::vector<double> row = dijkstra(graph, source);
    const std::vector<double> copy = row;
    EXPECT_FALSE(repair_row(graph, source, {}, row, scratch));
    EXPECT_EQ(row, copy);
  }
  // A link dearer than any path between its ends is never tight, and
  // adding it improves nothing.
  const Edge slack{0, n - 1, 1e3};
  std::vector<Edge> with = edges;
  with.push_back(slack);
  EXPECT_EQ(expect_repairs_exact(n, with, edges, {slack}, {}, scratch), 0u);
  EXPECT_EQ(expect_repairs_exact(n, edges, with, {}, {slack}, scratch), 0u);
}

TEST(RepairRow, AbsorptionFreePrecondition) {
  EXPECT_TRUE(absorption_free(Graph(3, {})));
  EXPECT_TRUE(absorption_free(Graph(3, {{0, 1, 1.0}, {1, 2, 1e-9}})));
  EXPECT_FALSE(absorption_free(Graph(3, {{0, 1, 1.0}, {1, 2, 0.0}})));
  EXPECT_FALSE(absorption_free(Graph(3, {{0, 1, 1.0}, {1, 2, 1e-17}})));
  EXPECT_FALSE(absorption_free(Graph(2, {{0, 1, kUnreachable}})));
}

}  // namespace
