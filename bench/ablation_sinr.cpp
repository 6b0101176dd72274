// Ablation (google-benchmark): incremental interference bookkeeping vs the
// from-scratch reference, measured on the operation the game loop performs
// — evaluating every candidate of every user once (one best-response
// round). DESIGN.md §6 documents why the incremental form exists.
#include <benchmark/benchmark.h>

#include "model/instance_builder.hpp"
#include "oracles/radio_reference.hpp"
#include "radio/interference.hpp"

namespace {

using namespace idde;

model::ProblemInstance make_inst(std::size_t n, std::size_t m) {
  model::InstanceParams p;
  p.server_count = n;
  p.user_count = m;
  p.data_count = 5;
  return model::make_instance(p, 7 + n + m);
}

void BM_SinrIncremental(benchmark::State& state) {
  const auto inst = make_inst(static_cast<std::size_t>(state.range(0)),
                              static_cast<std::size_t>(state.range(1)));
  const auto& env = inst.radio_env();
  radio::InterferenceField field(env);
  // Allocate everyone somewhere first.
  for (std::size_t j = 0; j < env.user_count; ++j) {
    const auto& cov = env.covering_servers[j];
    if (!cov.empty()) field.add_user(j, {cov[0], j % env.channels_per_server});
  }
  for (auto _ : state) {
    double sum = 0.0;
    for (std::size_t j = 0; j < env.user_count; ++j) {
      for (const std::size_t i : env.covering_servers[j]) {
        for (std::size_t x = 0; x < env.channels_per_server; ++x) {
          sum += field.sinr(j, {i, x});
        }
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}

void BM_SinrReference(benchmark::State& state) {
  const auto inst = make_inst(static_cast<std::size_t>(state.range(0)),
                              static_cast<std::size_t>(state.range(1)));
  const auto& env = inst.radio_env();
  std::vector<radio::ChannelSlot> alloc(env.user_count, radio::kUnallocated);
  for (std::size_t j = 0; j < env.user_count; ++j) {
    const auto& cov = env.covering_servers[j];
    if (!cov.empty()) {
      alloc[j] = radio::ChannelSlot{cov[0], j % env.channels_per_server};
    }
  }
  for (auto _ : state) {
    double sum = 0.0;
    for (std::size_t j = 0; j < env.user_count; ++j) {
      for (const std::size_t i : env.covering_servers[j]) {
        for (std::size_t x = 0; x < env.channels_per_server; ++x) {
          sum += oracle::sinr_reference(env, alloc, j, {i, x});
        }
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}

void SinrArgs(benchmark::internal::Benchmark* bench) {
  bench->Args({20, 100})->Args({30, 200})->Args({50, 350});
}

BENCHMARK(BM_SinrIncremental)->Apply(SinrArgs)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SinrReference)->Apply(SinrArgs)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
