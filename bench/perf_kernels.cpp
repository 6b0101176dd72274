// perf_kernels — microbenchmark for the three hot kernels this layer owns:
//
//   eval      scalar per-slot InterferenceField::benefit() vs the batched
//             SoA sweep (radio::BatchEvaluator) over every user's candidate
//             slots, in evaluations/second. The two paths are required to
//             be bit-identical per slot; the run aborts on any mismatch.
//   matrix    latency-matrix (APSP) builds: the production n-Dijkstra
//             CostMatrix and naive Floyd–Warshall, on the instance graph
//             and on a larger dense synthetic graph.
//   planner   heap allocations per GreedyDeliveryPlanner::plan() and
//             RepairPlanner::replan(), counted by a TU-local operator
//             new override. The first plan builds the planner's reusable
//             scratch; warm plans must stay at the small per-plan constant
//             (the returned DeliveryProfile), i.e. allocation-free per move.
//
// --smoke turns the report into a gate for CI: batched speedup below
// --min-speedup or a warm plan allocating more than --max-warm-allocs fail
// the run. Results go to stdout and to
// --out (default BENCH_kernels.json) for cross-PR tracking.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "core/game.hpp"
#include "core/greedy_delivery.hpp"
#include "core/repair_planner.hpp"
#include "model/instance_builder.hpp"
#include "net/shortest_path.hpp"
#include "obs/obs.hpp"
#include "radio/batch_eval.hpp"
#include "sim/paper.hpp"
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
      "builds, and planner allocation counts");
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
  IDDE_OBS_COUNT("perf.eval_slots_checked", sweep_evals);

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
    const auto dist = net::floyd_warshall(g);
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
  core::RepairPlanner repairer(instance);
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
  (void)repairer.replan(equilibrium.allocation, sigma, all_up);  // warm up
  const std::size_t repair_allocs_warm = count_allocs(
      [&] { (void)repairer.replan(equilibrium.allocation, sigma, all_up); });
  std::printf("  planner plan() allocations: cold %zu, warm %zu\n",
              plan_allocs_cold, plan_allocs_warm);
  std::printf("  planner replan() allocations: warm %zu\n\n",
              repair_allocs_warm);
  IDDE_OBS_COUNT("perf.plan_allocs_warm", plan_allocs_warm);
  IDDE_OBS_COUNT("perf.replan_allocs_warm", repair_allocs_warm);

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
    doc["planner_allocs"] = std::move(alloc);
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
