// perf_kernels — microbenchmark for the five hot kernels this layer owns,
// plus instance IO:
//
//   eval      scalar per-slot InterferenceField::benefit() vs the batched
//             SoA sweep (radio::BatchEvaluator) over every user's candidate
//             slots, in evaluations/second. The two paths are required to
//             be bit-identical per slot; the run aborts on any mismatch.
//   matrix    latency-matrix (APSP) builds: the production n-Dijkstra
//             CostMatrix and naive Floyd–Warshall, on the instance graph
//             and on a larger dense synthetic graph.
//   planner   heap allocations per GreedyDeliveryPlanner::plan() and
//             GreedyDeliveryPlanner::replan(), counted by a TU-local operator
//             new override, and per plan() at an (N, 2) code shape (the
//             evaluator's resolver-priced k > 1 branch). The first plan
//             builds the planner's reusable scratch; warm plans must stay at
//             the small per-plan constant (the returned DeliveryProfile),
//             i.e. allocation-free per move.
//   fluid     the DES's link-indexed max-min water-filling
//             (des::detail::assign_max_min_rates) vs the full-scan oracle,
//             in solves/second, on a metro-like shape (thousands of
//             multi-hop legs) and a replay-chaos-like one (tens of legs).
//             Rates must match the oracle bit for bit (the run aborts
//             otherwise) and a warm solve must not allocate.
//   injector  fault::FaultInjector construction plus a forward walk over
//             every epoch of city-size (125-server) chaos plans, in ms per
//             plan, against the eager reference of a fresh
//             CostMatrix(epoch.graph) per epoch, all kept alive. Every
//             repaired epoch matrix must match the fresh one bit for bit
//             (the run aborts otherwise); the report counts rows left
//             untouched, repaired and built from scratch, the matrix bytes
//             each side retains, and the allocations of warm steps (after
//             the first repair), which must be none.
//   instance_io  InstanceBuilder::build, instance_to_string and
//             instance_from_string at city (125/816) and metro-short
//             (60/960) size, in ms, with the file's bytes per user and the
//             stored gains per user of the sparse store. Every file must
//             load back to an instance that writes the same bytes.
//
// --smoke turns the report into a gate for CI: batched speedup below
// --min-speedup, a warm plan, replan or k = 2 plan allocating more than
// --max-warm-allocs, a warm water-filling solve allocating at all, an
// indexed/oracle water-filling ratio on the metro-like shape below
// kMinFluidSpeedup, an eager/injector walk ratio below kMinInjectorSpeedup,
// a warm injector step allocating at all, or a city instance file above
// kMaxCityBytesPerUser fail the run.
// Telemetry is switched on after every timed section, so the report's
// telemetry block carries the perf.* counters without costing the timings.
// Results go to stdout and to --out (default BENCH_kernels.json) for
// cross-PR tracking.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <random>
#include <string>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "core/game.hpp"
#include "core/greedy_delivery.hpp"
#include "des/fluid.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "model/instance_builder.hpp"
#include "model/instance_io.hpp"
#include "net/shortest_path.hpp"
#include "obs/obs.hpp"
#include "oracles/floyd_warshall.hpp"
#include "oracles/scan_max_min.hpp"
#include "radio/batch_eval.hpp"
#include "sim/overload.hpp"
#include "sim/paper.hpp"
#include "sim/scenario.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

// memory-order: seq_cst counters toggled/read only on the bench main
// thread between single-threaded kernel calls; no ordering is derived.
std::atomic<std::size_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

}  // namespace

// TU-local replacement of the global allocator: counts allocations while
// the planner section has the flag up, otherwise plain malloc/free.
void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace idde;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Counts heap allocations performed by `body`.
template <typename Body>
std::size_t count_allocs(Body&& body) {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  body();
  g_count_allocs.store(false, std::memory_order_relaxed);
  return g_alloc_count.load(std::memory_order_relaxed);
}

/// Random connected dense graph for the APSP timings: a ring
/// (connectivity) plus `extra_per_node` random chords. Deterministic.
net::Graph dense_graph(std::size_t nodes, std::size_t extra_per_node,
                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> weight(0.01, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, nodes - 1);
  std::vector<net::Edge> edges;
  edges.reserve(nodes * (1 + extra_per_node));
  for (std::size_t i = 0; i < nodes; ++i) {
    edges.push_back(net::Edge{i, (i + 1) % nodes, weight(rng)});
    for (std::size_t e = 0; e < extra_per_node; ++e) {
      const std::size_t j = pick(rng);
      if (j != i) edges.push_back(net::Edge{i, j, weight(rng)});
    }
  }
  return net::Graph(nodes, edges);
}

/// A synthetic water-filling input: `legs` routes of 1..max_hops distinct
/// links, in random order, over `links` links of random capacity (MB/s).
struct FluidShape {
  const char* name;
  std::vector<des::detail::Leg> legs;
  std::vector<double> capacities;
};

FluidShape fluid_shape(const char* name, std::size_t legs, std::size_t links,
                       std::size_t max_hops, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> capacity(1.0, 100.0);
  std::uniform_int_distribution<std::size_t> pick_link(0, links - 1);
  std::uniform_int_distribution<std::size_t> pick_hops(1, max_hops);
  FluidShape shape{name, {}, {}};
  for (std::size_t l = 0; l < links; ++l) {
    shape.capacities.push_back(capacity(rng));
  }
  for (std::size_t f = 0; f < legs; ++f) {
    des::detail::Leg leg;
    const std::size_t hops = pick_hops(rng);
    while (leg.links.size() < hops) {
      const std::size_t l = pick_link(rng);
      if (std::find(leg.links.begin(), leg.links.end(), l) == leg.links.end()) {
        leg.links.push_back(l);
      }
    }
    shape.legs.push_back(std::move(leg));
  }
  return shape;
}

/// --smoke floor on the metro-like indexed/oracle ratio: well under the
/// ~8-9x it measures, far above a regression back to the full scan.
constexpr double kMinFluidSpeedup = 3.0;

struct FluidTiming {
  double indexed_solves_per_sec = 0.0;
  double oracle_solves_per_sec = 0.0;
  double speedup = 0.0;
  std::size_t rounds = 0;       ///< freeze rounds of one solve
  std::size_t warm_allocs = 0;  ///< heap allocations of a warm solve
};

/// Checks the indexed solve against the oracle bit for bit, counts a warm
/// solve's allocations, then times `reps` solves of each in interleaved
/// chunks (as the eval section does).
FluidTiming time_fluid(FluidShape& shape, std::size_t reps) {
  FluidTiming timing;
  des::detail::FluidScratch scratch;
  des::detail::FluidScratch oracle_scratch;
  std::vector<des::detail::Leg> expected = shape.legs;
  oracle::scan_max_min_rates(expected, shape.capacities, oracle_scratch);
  timing.rounds = des::detail::assign_max_min_rates(shape.legs,
                                                    shape.capacities, scratch);
  for (std::size_t f = 0; f < shape.legs.size(); ++f) {
    IDDE_ASSERT(std::bit_cast<std::uint64_t>(shape.legs[f].rate_mbps) ==
                    std::bit_cast<std::uint64_t>(expected[f].rate_mbps),
                "indexed water-filling diverged from the scan oracle");
  }
  timing.warm_allocs = count_allocs([&] {
    (void)des::detail::assign_max_min_rates(shape.legs, shape.capacities,
                                            scratch);
  });

  double indexed_ms = 0.0;
  double oracle_ms = 0.0;
  const std::size_t chunk = std::max<std::size_t>(1, reps / 10);
  for (std::size_t done = 0; done < reps; done += chunk) {
    const std::size_t n = std::min(chunk, reps - done);
    const auto indexed_start = Clock::now();
    for (std::size_t rep = 0; rep < n; ++rep) {
      (void)des::detail::assign_max_min_rates(shape.legs, shape.capacities,
                                              scratch);
    }
    indexed_ms += ms_since(indexed_start);
    const auto oracle_start = Clock::now();
    for (std::size_t rep = 0; rep < n; ++rep) {
      oracle::scan_max_min_rates(expected, shape.capacities, oracle_scratch);
    }
    oracle_ms += ms_since(oracle_start);
  }
  const double solves = static_cast<double>(reps);
  timing.indexed_solves_per_sec = solves / (indexed_ms * 1e-3);
  timing.oracle_solves_per_sec = solves / (oracle_ms * 1e-3);
  timing.speedup = timing.indexed_solves_per_sec / timing.oracle_solves_per_sec;
  return timing;
}

/// --smoke floor on the eager/injector walk ratio: well under the ~9x it
/// measures, far above a regression back to a fresh matrix per epoch.
constexpr double kMinInjectorSpeedup = 2.0;

struct InjectorTiming {
  std::size_t epochs = 0;    ///< over all plans
  double eager_ms = 0.0;     ///< per plan: CostMatrix(epoch.graph) per epoch
  double injector_ms = 0.0;  ///< per plan: construction + a full forward walk
  double speedup = 0.0;
  /// Heap allocations of the steps after epoch 1 (whose repair sizes the
  /// repair scratch), over all plans.
  std::size_t warm_step_allocs = 0;
  std::size_t cursor_matrix_bytes = 0;  ///< the one matrix the cursor holds
  std::size_t eager_matrix_bytes = 0;   ///< every epoch's, largest plan
};

/// Walks each plan's injector forward over every epoch and checks each
/// epoch's matrix against a fresh build bit for bit, then times `reps`
/// rounds of both sides per plan, alternating: the injector's construction
/// plus a full forward walk, and the eager reference of a fresh matrix per
/// epoch, all kept alive. Each timed round starts with the previous one
/// freed, so both sides draw on the same warm heap.
InjectorTiming time_injector(const model::ProblemInstance& city,
                             const std::vector<fault::FaultPlan>& plans,
                             std::size_t reps) {
  InjectorTiming timing;
  const std::size_t n = city.server_count();
  const std::size_t matrix_bytes = n * n * sizeof(double);
  timing.cursor_matrix_bytes = matrix_bytes;
  std::vector<net::Graph> graphs;
  std::vector<net::CostMatrix> eager;
  for (const fault::FaultPlan& plan : plans) {
    graphs.clear();
    {
      fault::FaultInjector reference(city, plan);
      for (std::size_t e = 0; e < reference.epoch_count(); ++e) {
        const fault::AvailabilitySnapshot& snap = reference.epoch(e);
        const net::CostMatrix fresh(snap.graph);
        for (std::size_t a = 0; a < n; ++a) {
          for (std::size_t b = 0; b < n; ++b) {
            IDDE_ASSERT(std::bit_cast<std::uint64_t>(snap.costs.cost(a, b)) ==
                            std::bit_cast<std::uint64_t>(fresh.cost(a, b)),
                        "repaired epoch matrix diverged from a fresh build");
          }
        }
        graphs.push_back(snap.graph);
      }
    }
    {
      fault::FaultInjector walked(city, plan);
      (void)walked.epoch(1);
      timing.warm_step_allocs += count_allocs([&] {
        for (std::size_t e = 2; e < walked.epoch_count(); ++e) {
          (void)walked.epoch(e);
        }
      });
    }
    timing.epochs += graphs.size();
    timing.eager_matrix_bytes =
        std::max(timing.eager_matrix_bytes, graphs.size() * matrix_bytes);
    eager.reserve(graphs.size());
    for (std::size_t rep = 0; rep < reps; ++rep) {
      {
        const auto injector_start = Clock::now();
        fault::FaultInjector injector(city, plan);
        for (std::size_t e = 0; e < injector.epoch_count(); ++e) {
          (void)injector.epoch(e);
        }
        timing.injector_ms += ms_since(injector_start);
      }
      const auto eager_start = Clock::now();
      for (const net::Graph& graph : graphs) eager.emplace_back(graph);
      timing.eager_ms += ms_since(eager_start);
      eager.clear();
    }
  }
  const double builds = static_cast<double>(reps * plans.size());
  timing.eager_ms /= builds;
  timing.injector_ms /= builds;
  timing.speedup = timing.eager_ms / timing.injector_ms;
  return timing;
}

/// --smoke ceiling on the city instance file's bytes per user: the dense
/// idde-instance-v1 file took ~3 KB (125 gains per user); the sparse v2
/// file takes well under a third of that. Deterministic (fixed instance).
constexpr double kMaxCityBytesPerUser = 1024.0;

struct InstanceTiming {
  const char* name = "";
  std::size_t servers = 0;
  std::size_t users = 0;
  double build_ms = 0.0;  ///< per build
  double write_ms = 0.0;  ///< per instance_to_string
  double read_ms = 0.0;   ///< per instance_from_string
  double bytes_per_user = 0.0;
  double entries_per_user = 0.0;  ///< stored gains per user
};

/// Times `reps` build -> write -> read rounds of one instance and checks
/// that the file loads back to an instance that writes the same bytes.
InstanceTiming time_instance(const char* name,
                             const model::InstanceParams& params,
                             std::uint64_t seed, std::size_t reps) {
  InstanceTiming timing;
  timing.name = name;
  timing.servers = params.server_count;
  timing.users = params.user_count;
  const model::InstanceBuilder builder(params);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto build_start = Clock::now();
    const model::ProblemInstance built = builder.build(seed);
    timing.build_ms += ms_since(build_start);
    const auto write_start = Clock::now();
    const std::string text = model::instance_to_string(built);
    timing.write_ms += ms_since(write_start);
    const auto read_start = Clock::now();
    const model::ProblemInstance back = model::instance_from_string(text);
    timing.read_ms += ms_since(read_start);
    IDDE_ASSERT(model::instance_to_string(back) == text,
                "instance file did not load back to the same bytes");
    const auto users = static_cast<double>(built.user_count());
    timing.bytes_per_user = static_cast<double>(text.size()) / users;
    timing.entries_per_user =
        static_cast<double>(built.radio_env().gain.size()) / users;
  }
  timing.build_ms /= static_cast<double>(reps);
  timing.write_ms /= static_cast<double>(reps);
  timing.read_ms /= static_cast<double>(reps);
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t servers = 30;
  std::size_t users = 350;
  std::size_t data = 5;
  std::size_t seed = 1;
  std::size_t eval_reps = 500;
  std::size_t matrix_reps = 5;
  std::size_t dense_nodes = 256;
  double min_speedup = 1.5;
  std::size_t max_warm_allocs = 32;
  bool smoke = false;
  std::string out = "BENCH_kernels.json";
  util::CliParser cli(
      "perf_kernels: batched-vs-scalar slot evaluation, latency-matrix "
      "builds, planner allocation counts, indexed-vs-scan water-filling, and "
      "fault-injector epoch builds, instance build/write/read");
  cli.add_size("servers", &servers, "edge servers N");
  cli.add_size("users", &users, "users M (Set #2 tops out at 350)");
  cli.add_size("data", &data, "data items K");
  cli.add_size("seed", &seed, "instance seed");
  cli.add_size("eval-reps", &eval_reps, "full-population sweeps per timing");
  cli.add_size("matrix-reps", &matrix_reps, "APSP builds per timing");
  cli.add_size("dense-nodes", &dense_nodes, "synthetic dense graph size");
  cli.add_double("min-speedup", &min_speedup,
                 "--smoke gate: required batched/scalar evals-per-sec ratio");
  cli.add_size("max-warm-allocs", &max_warm_allocs,
               "--smoke gate: allocation budget of a warm plan()");
  cli.add_flag("smoke", &smoke, "fast run + enforce regression gates");
  cli.add_string("out", &out, "JSON output path (empty = skip)");
  if (!cli.parse(argc, argv)) return 0;
  if (smoke) {
    // Enough sweeps for a stable ratio (a 10-sweep timing is ~0.1 ms and
    // jitters past the gate), still well under a second end to end.
    eval_reps = std::min<std::size_t>(eval_reps, 100);
    matrix_reps = std::min<std::size_t>(matrix_reps, 2);
    dense_nodes = std::min<std::size_t>(dense_nodes, 192);
  }

  model::InstanceParams params = sim::paper_default_params();
  params.server_count = servers;
  params.user_count = users;
  params.data_count = data;
  const model::ProblemInstance instance = model::make_instance(params, seed);

  std::printf("perf_kernels: N=%zu M=%zu K=%zu seed=%zu%s\n\n", servers, users,
              data, seed, smoke ? " (smoke)" : "");

  // ---- eval: scalar vs batched best-response pricing -------------------
  // Occupancy from a real equilibrium so the interference terms look like
  // what the solver's inner loop actually reads.
  core::IddeUGame game(instance);
  const core::GameResult equilibrium = game.run();
  radio::InterferenceField field(instance.radio_env());
  for (std::size_t j = 0; j < users; ++j) {
    if (equilibrium.allocation[j].allocated()) {
      field.add_user(j, equilibrium.allocation[j]);
    }
  }
  const std::size_t channels = instance.radio_env().channels_per_server;

  // Bit-identity first: every slot of every user, exact equality.
  {
    radio::BatchEvaluator batch(field);
    for (std::size_t j = 0; j < users; ++j) {
      const auto& covering = instance.covering_servers(j);
      const auto priced = batch.benefits(j, covering);
      for (std::size_t a = 0; a < covering.size(); ++a) {
        for (std::size_t x = 0; x < channels; ++x) {
          const double scalar =
              field.benefit(j, radio::ChannelSlot{covering[a], x});
          IDDE_ASSERT(priced[a * channels + x] == scalar,
                      "batched benefit diverged from the scalar oracle");
        }
      }
    }
  }

  // The two kernels are timed in INTERLEAVED chunks rather than two long
  // back-to-back windows: on shared/thermally-drifting machines the CPU
  // frequency can move between windows and pollute the ratio by tens of
  // percent; alternating spreads any drift evenly over both kernels.
  double scalar_ms = 0.0;
  double batched_ms = 0.0;
  std::size_t sweep_evals = 0;
  double checksum_scalar = 0.0;
  double checksum_batched = 0.0;
  {
    radio::BatchEvaluator batch(field);
    const std::size_t chunk = std::max<std::size_t>(1, eval_reps / 10);
    for (std::size_t done = 0; done < eval_reps; done += chunk) {
      const std::size_t reps = std::min(chunk, eval_reps - done);
      const auto scalar_start = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (std::size_t j = 0; j < users; ++j) {
          for (const std::size_t i : instance.covering_servers(j)) {
            for (std::size_t x = 0; x < channels; ++x) {
              checksum_scalar += field.benefit(j, radio::ChannelSlot{i, x});
              if (done == 0 && rep == 0) ++sweep_evals;
            }
          }
        }
      }
      scalar_ms += ms_since(scalar_start);
      const auto batched_start = Clock::now();
      for (std::size_t rep = 0; rep < reps; ++rep) {
        for (std::size_t j = 0; j < users; ++j) {
          const auto priced = batch.benefits(j, instance.covering_servers(j));
          for (const double b : priced) checksum_batched += b;
        }
      }
      batched_ms += ms_since(batched_start);
    }
  }
  IDDE_ASSERT(checksum_scalar == checksum_batched,
              "batched sweep checksum diverged from the scalar sweep");
  const double total_evals =
      static_cast<double>(sweep_evals) * static_cast<double>(eval_reps);
  const double scalar_eps = total_evals / (scalar_ms * 1e-3);
  const double batched_eps = total_evals / (batched_ms * 1e-3);
  const double eval_speedup = batched_eps / scalar_eps;
  std::printf("  eval    scalar  %12.0f evals/s   (%.2f ms / %zu sweeps)\n",
              scalar_eps, scalar_ms, eval_reps);
  std::printf("  eval    batched %12.0f evals/s   (%.2f ms / %zu sweeps)\n",
              batched_eps, batched_ms, eval_reps);
  std::printf("  eval    speedup %.2fx, bit-identical on %zu slots\n\n",
              eval_speedup, sweep_evals);

  // ---- matrix: latency-matrix (APSP) builds ----------------------------
  const auto time_build = [&](const net::Graph& graph, auto&& build) {
    double total = 0.0;
    for (std::size_t rep = 0; rep < matrix_reps; ++rep) {
      const auto start = Clock::now();
      build(graph);
      total += ms_since(start);
    }
    return total / static_cast<double>(matrix_reps);
  };
  const auto build_dijkstra = [](const net::Graph& g) {
    const net::CostMatrix matrix(g);
    IDDE_ASSERT(matrix.size() == g.node_count(), "bad matrix");
  };
  const auto build_floyd = [](const net::Graph& g) {
    const auto dist = oracle::floyd_warshall(g);
    IDDE_ASSERT(dist.size() == g.node_count() * g.node_count(), "bad matrix");
  };

  const net::Graph& inst_graph = instance.graph();
  const double inst_dijkstra_ms = time_build(inst_graph, build_dijkstra);
  const double inst_floyd_ms = time_build(inst_graph, build_floyd);

  const net::Graph dense = dense_graph(dense_nodes, 8, seed);
  const double dense_dijkstra_ms = time_build(dense, build_dijkstra);
  const double dense_floyd_ms = time_build(dense, build_floyd);

  std::printf("  matrix  instance n=%-4zu dijkstra %7.3f ms  floyd %7.3f ms\n",
              inst_graph.node_count(), inst_dijkstra_ms, inst_floyd_ms);
  std::printf("  matrix  dense    n=%-4zu dijkstra %7.3f ms  floyd %7.3f "
              "ms\n\n",
              dense_nodes, dense_dijkstra_ms, dense_floyd_ms);

  // ---- planner: allocations per plan -----------------------------------
  core::GreedyDeliveryPlanner planner(instance);
  const std::size_t plan_allocs_cold =
      count_allocs([&] { (void)planner.plan(equilibrium.allocation); });
  std::size_t plan_allocs_warm = 0;
  core::DeliveryProfile sigma(instance);
  {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    auto result = planner.plan(equilibrium.allocation);
    g_count_allocs.store(false, std::memory_order_relaxed);
    plan_allocs_warm = g_alloc_count.load(std::memory_order_relaxed);
    sigma = std::move(result.delivery);
  }
  const std::vector<std::uint8_t> all_up(servers, 1);
  (void)planner.replan(equilibrium.allocation, sigma, all_up);  // warm up
  const std::size_t repair_allocs_warm = count_allocs(
      [&] { (void)planner.replan(equilibrium.allocation, sigma, all_up); });
  const core::FragmentConfig coded_shape{servers, 2};
  (void)planner.plan(equilibrium.allocation, coded_shape);  // warm up
  const std::size_t coded_plan_allocs_warm = count_allocs(
      [&] { (void)planner.plan(equilibrium.allocation, coded_shape); });
  std::printf("  planner plan() allocations: cold %zu, warm %zu\n",
              plan_allocs_cold, plan_allocs_warm);
  std::printf("  planner replan() allocations: warm %zu\n",
              repair_allocs_warm);
  std::printf("  planner plan() allocations at (%zu, 2): warm %zu\n\n",
              servers, coded_plan_allocs_warm);

  // ---- fluid: link-indexed water-filling vs the scan oracle -------------
  // Metro-like: a 500/8000 burst replay keeps thousands of legs in flight
  // over the ~1500 links of a ~500-node graph. Replay-chaos-like: tens of
  // legs per solve, solved ~10^5 times a run.
  FluidShape fluid_shapes[] = {
      fluid_shape("metro_like", 4000, 1500, 6, seed),
      fluid_shape("chaos_like", 30, 250, 4, seed + 1)};
  const std::size_t metro_reps = smoke ? 4 : 20;
  const std::size_t fluid_shape_reps[] = {metro_reps, metro_reps * 500};
  FluidTiming fluid[2];
  for (std::size_t s = 0; s < 2; ++s) {
    fluid[s] = time_fluid(fluid_shapes[s], fluid_shape_reps[s]);
    std::printf("  fluid   %-10s %4zu legs / %4zu links: indexed %10.0f "
                "solves/s, oracle %10.0f solves/s (%.1fx, %zu rounds, %zu "
                "warm allocs)\n",
                fluid_shapes[s].name, fluid_shapes[s].legs.size(),
                fluid_shapes[s].capacities.size(),
                fluid[s].indexed_solves_per_sec,
                fluid[s].oracle_solves_per_sec, fluid[s].speedup,
                fluid[s].rounds, fluid[s].warm_allocs);
  }
  std::printf("\n");

  // ---- injector: repaired epoch matrices vs a fresh build per epoch ----
  // replay-chaos's shape: 125-server city instances, chaos plans of a few
  // hundred epochs each.
  model::InstanceParams city_params = sim::paper_default_params();
  city_params.server_count = 125;
  city_params.user_count = 816;
  city_params.data_count = 12;
  const model::ProblemInstance city = model::make_instance(city_params, seed);
  std::vector<fault::FaultPlan> chaos_plans;
  for (std::size_t p = 0; p < (smoke ? 4u : 16u); ++p) {
    chaos_plans.push_back(fault::FaultPlan::generate(
        city, sim::chaos_fault_profile(), seed + p));
  }
  const std::size_t injector_reps = smoke ? 1 : 3;
#ifdef __GLIBC__
  // The eager reference keeps ~40 MB of matrices per plan at the top of
  // the heap; glibc would hand those pages back to the OS after every
  // round, so it would mostly time first-touch page faults. Keep freed
  // memory in the process.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  const InjectorTiming injector =
      time_injector(city, chaos_plans, injector_reps);

  // ---- instance: build, write and read of the sparse gain store --------
  const std::size_t instance_reps = smoke ? 2 : 10;
  const InstanceTiming instance_rows[] = {
      time_instance("city", city_params, seed, instance_reps),
      time_instance(
          "metro_short",
          sim::params_from_string(
              R"({"server_count":60,"user_count":960,)"
              R"("eua":{"area_side_m":1386,"server_count":60,)"
              R"("user_count":960}})"),
          seed, instance_reps)};
  for (const InstanceTiming& row : instance_rows) {
    std::printf("  instance %-11s %zu/%zu: build %7.2f ms, write %6.2f ms, "
                "read %6.2f ms; %.0f bytes and %.1f gains per user\n",
                row.name, row.servers, row.users, row.build_ms, row.write_ms,
                row.read_ms, row.bytes_per_user, row.entries_per_user);
  }
  std::printf("\n");

  // Recording starts after the last timed section.
  obs::set_enabled(true);
  // Untimed: the injector's own counters split the rows by how they were
  // made.
  for (const fault::FaultPlan& plan : chaos_plans) {
    fault::FaultInjector walked(city, plan);
    for (std::size_t e = 0; e < walked.epoch_count(); ++e) {
      (void)walked.epoch(e);
    }
  }
  const auto counter = [](const char* name) -> std::size_t {
    return obs::MetricsRegistry::global().counter(name).value();
  };
  const std::size_t rows_total = injector.epochs * city.server_count();
  const std::size_t rows_repaired =
      counter("fault.injector_rows_repaired_total");
  const std::size_t rows_built = counter("fault.injector_rows_built_total");
  const std::size_t rows_untouched = rows_total - rows_repaired - rows_built;
  std::printf("  injector %zu chaos plans x %zu servers, %zu epochs: eager "
              "%.2f ms, injector walk %.2f ms per plan (%.1fx); rows "
              "untouched %zu, repaired %zu, built %zu; %zu warm-step "
              "allocations; matrix bytes retained: injector %zu, eager "
              "%zu\n\n",
              chaos_plans.size(), city.server_count(), injector.epochs,
              injector.eager_ms, injector.injector_ms, injector.speedup,
              rows_untouched, rows_repaired, rows_built,
              injector.warm_step_allocs, injector.cursor_matrix_bytes,
              injector.eager_matrix_bytes);
  IDDE_OBS_COUNT("perf.eval_slots_checked", sweep_evals);
  IDDE_OBS_COUNT("perf.plan_allocs_warm", plan_allocs_warm);
  IDDE_OBS_COUNT("perf.replan_allocs_warm", repair_allocs_warm);
  IDDE_OBS_COUNT("perf.coded_plan_allocs_warm", coded_plan_allocs_warm);
  IDDE_OBS_COUNT("perf.fluid_legs_checked",
                 fluid_shapes[0].legs.size() + fluid_shapes[1].legs.size());
  IDDE_OBS_COUNT("perf.fluid_rounds", fluid[0].rounds + fluid[1].rounds);
  IDDE_OBS_COUNT("perf.fluid_warm_allocs",
                 fluid[0].warm_allocs + fluid[1].warm_allocs);
  IDDE_OBS_COUNT("perf.injector_epochs_checked", injector.epochs);

  // ---- gates / output ---------------------------------------------------
  bool failed = false;
  if (smoke) {
    if (eval_speedup < min_speedup) {
      std::fprintf(stderr,
                   "GATE: batched eval speedup %.2fx below required %.2fx\n",
                   eval_speedup, min_speedup);
      failed = true;
    }
    if (plan_allocs_warm > max_warm_allocs) {
      std::fprintf(stderr,
                   "GATE: warm plan() made %zu allocations (budget %zu)\n",
                   plan_allocs_warm, max_warm_allocs);
      failed = true;
    }
    if (repair_allocs_warm > max_warm_allocs) {
      std::fprintf(stderr,
                   "GATE: warm replan() made %zu allocations (budget %zu)\n",
                   repair_allocs_warm, max_warm_allocs);
      failed = true;
    }
    if (coded_plan_allocs_warm > max_warm_allocs) {
      std::fprintf(stderr,
                   "GATE: warm (N, 2) plan() made %zu allocations (budget "
                   "%zu)\n",
                   coded_plan_allocs_warm, max_warm_allocs);
      failed = true;
    }
    for (std::size_t s = 0; s < 2; ++s) {
      if (fluid[s].warm_allocs != 0) {
        std::fprintf(stderr,
                     "GATE: warm %s water-filling made %zu allocations\n",
                     fluid_shapes[s].name, fluid[s].warm_allocs);
        failed = true;
      }
    }
    if (fluid[0].speedup < kMinFluidSpeedup) {
      std::fprintf(stderr,
                   "GATE: indexed water-filling speedup %.2fx below required "
                   "%.2fx\n",
                   fluid[0].speedup, kMinFluidSpeedup);
      failed = true;
    }
    if (injector.speedup < kMinInjectorSpeedup) {
      std::fprintf(stderr,
                   "GATE: injector build speedup %.2fx below required "
                   "%.2fx\n",
                   injector.speedup, kMinInjectorSpeedup);
      failed = true;
    }
    if (injector.warm_step_allocs != 0) {
      std::fprintf(stderr, "GATE: warm injector steps made %zu allocations\n",
                   injector.warm_step_allocs);
      failed = true;
    }
    if (instance_rows[0].bytes_per_user > kMaxCityBytesPerUser) {
      std::fprintf(stderr,
                   "GATE: city instance file takes %.0f bytes per user "
                   "(ceiling %.0f)\n",
                   instance_rows[0].bytes_per_user, kMaxCityBytesPerUser);
      failed = true;
    }
  }

  if (!out.empty()) {
    util::JsonObject doc;
    doc["bench"] = std::string("perf_kernels");
    util::JsonObject shape;
    shape["servers"] = servers;
    shape["users"] = users;
    shape["data"] = data;
    shape["seed"] = seed;
    shape["smoke"] = smoke;
    doc["instance"] = std::move(shape);
    util::JsonObject eval;
    eval["slots_per_sweep"] = sweep_evals;
    eval["sweeps"] = eval_reps;
    eval["scalar_evals_per_sec"] = scalar_eps;
    eval["batched_evals_per_sec"] = batched_eps;
    eval["speedup"] = eval_speedup;
    doc["eval"] = std::move(eval);
    util::JsonObject matrix;
    matrix["instance_nodes"] = inst_graph.node_count();
    matrix["instance_dijkstra_ms"] = inst_dijkstra_ms;
    matrix["instance_floyd_ms"] = inst_floyd_ms;
    matrix["dense_nodes"] = dense_nodes;
    matrix["dense_dijkstra_ms"] = dense_dijkstra_ms;
    matrix["dense_floyd_ms"] = dense_floyd_ms;
    doc["matrix"] = std::move(matrix);
    util::JsonObject alloc;
    alloc["plan_cold"] = plan_allocs_cold;
    alloc["plan_warm"] = plan_allocs_warm;
    alloc["replan_warm"] = repair_allocs_warm;
    alloc["coded_plan_warm"] = coded_plan_allocs_warm;
    doc["planner_allocs"] = std::move(alloc);
    util::JsonObject fluid_doc;
    for (std::size_t s = 0; s < 2; ++s) {
      util::JsonObject row;
      row["legs"] = fluid_shapes[s].legs.size();
      row["links"] = fluid_shapes[s].capacities.size();
      row["solves"] = fluid_shape_reps[s];
      row["rounds"] = fluid[s].rounds;
      row["indexed_solves_per_sec"] = fluid[s].indexed_solves_per_sec;
      row["oracle_solves_per_sec"] = fluid[s].oracle_solves_per_sec;
      row["speedup"] = fluid[s].speedup;
      row["warm_allocs"] = fluid[s].warm_allocs;
      fluid_doc[fluid_shapes[s].name] = std::move(row);
    }
    doc["fluid"] = std::move(fluid_doc);
    util::JsonObject injector_doc;
    injector_doc["servers"] = city.server_count();
    injector_doc["plans"] = chaos_plans.size();
    injector_doc["epochs"] = injector.epochs;
    injector_doc["reps"] = injector_reps;
    injector_doc["eager_ms_per_plan"] = injector.eager_ms;
    injector_doc["injector_ms_per_plan"] = injector.injector_ms;
    injector_doc["speedup"] = injector.speedup;
    injector_doc["rows_untouched"] = rows_untouched;
    injector_doc["rows_repaired"] = rows_repaired;
    injector_doc["rows_built"] = rows_built;
    injector_doc["warm_step_allocs"] = injector.warm_step_allocs;
    util::JsonObject retained;
    retained["injector"] = injector.cursor_matrix_bytes;
    retained["eager"] = injector.eager_matrix_bytes;
    injector_doc["retained_matrix_bytes"] = std::move(retained);
    doc["injector"] = std::move(injector_doc);
    util::JsonObject instance_doc;
    for (const InstanceTiming& row : instance_rows) {
      util::JsonObject entry;
      entry["servers"] = row.servers;
      entry["users"] = row.users;
      entry["reps"] = instance_reps;
      entry["build_ms"] = row.build_ms;
      entry["write_ms"] = row.write_ms;
      entry["read_ms"] = row.read_ms;
      entry["bytes_per_user"] = row.bytes_per_user;
      entry["gain_entries_per_user"] = row.entries_per_user;
      instance_doc[row.name] = std::move(entry);
    }
    doc["instance_io"] = std::move(instance_doc);
    doc["telemetry"] = obs::telemetry_json();
    std::ofstream file(out);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    file << util::Json(std::move(doc)).dump(2) << "\n";
    std::printf("wrote %s\n", out.c_str());
  }
  return failed ? 1 : 0;
}
