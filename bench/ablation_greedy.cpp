// Ablation (google-benchmark): lazy greedy vs naive rescanning in Phase 2.
// The lazy planner exploits the submodularity of the latency-reduction
// objective (DESIGN.md §6); this bench quantifies the saved gain
// evaluations and wall-clock across instance sizes.
#include <benchmark/benchmark.h>

#include "core/game.hpp"
#include "core/greedy_delivery.hpp"
#include "model/instance_builder.hpp"
#include "oracles/naive_greedy.hpp"

namespace {

using namespace idde;

model::InstanceParams params_for(std::size_t n, std::size_t k) {
  model::InstanceParams p;
  p.server_count = n;
  p.user_count = n * 6;  // paper-like user density
  p.data_count = k;
  return p;
}

struct Prepared {
  model::ProblemInstance instance;
  core::AllocationProfile allocation;
};

Prepared prepare(std::size_t n, std::size_t k) {
  model::ProblemInstance instance =
      model::make_instance(params_for(n, k), 42 + n + k);
  core::AllocationProfile allocation =
      core::IddeUGame(instance).run().allocation;
  return Prepared{std::move(instance), std::move(allocation)};
}

void BM_GreedyLazy(benchmark::State& state) {
  const auto prepared = prepare(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)));
  core::GreedyDeliveryPlanner planner(prepared.instance);
  std::size_t evaluations = 0;
  for (auto _ : state) {
    const auto result = planner.plan(prepared.allocation);
    evaluations = result.gain_evaluations;
    benchmark::DoNotOptimize(result.placements);
  }
  state.counters["gain_evals"] = static_cast<double>(evaluations);
}

void BM_GreedyNaive(benchmark::State& state) {
  const auto prepared = prepare(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)));
  std::size_t evaluations = 0;
  for (auto _ : state) {
    const auto result =
        oracle::naive_greedy_plan(prepared.instance, prepared.allocation);
    evaluations = result.gain_evaluations;
    benchmark::DoNotOptimize(result.placements);
  }
  state.counters["gain_evals"] = static_cast<double>(evaluations);
}

void GreedyArgs(benchmark::internal::Benchmark* bench) {
  bench->Args({20, 5})->Args({30, 5})->Args({50, 5})->Args({30, 8});
}

BENCHMARK(BM_GreedyLazy)->Apply(GreedyArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GreedyNaive)->Apply(GreedyArgs)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
