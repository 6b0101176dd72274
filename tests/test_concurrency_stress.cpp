// Concurrency stress suite, designed to run under ThreadSanitizer (the CI
// tsan job runs ctest with halt_on_error=1, so any data race here is a hard
// failure). Covers the three shared-state surfaces of the codebase:
//   - util::ThreadPool (queue / in-flight / stop-flag handling, shutdown,
//     reuse, exception propagation, concurrent parallel_for callers),
//   - core::IddeUGame's parallel dirty-set refresh (field and version
//     counters shared read-only across workers),
//   - util::logging's global level + write serialisation,
//   - obs:: telemetry (striped counters, histogram CAS folds, registry
//     lookups, tracer buffers) hammered concurrently with scrapes.
// Tests may use std::thread directly: tests/ is outside the project-lint
// scope that requires util::ThreadPool elsewhere, and raw threads are the
// point here — they drive the pool from many directions at once.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/game.hpp"
#include "model/instance_builder.hpp"
#include "obs/obs.hpp"
#include "oracles/full_scan_game.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace idde;
using core::GameOptions;
using core::GameResult;
using core::IddeUGame;
using core::UpdateRule;
using model::InstanceParams;
using model::ProblemInstance;
using util::ThreadPool;

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

InstanceParams shape(std::size_t n, std::size_t m, std::size_t k = 3) {
  InstanceParams p;
  p.server_count = n;
  p.user_count = m;
  p.data_count = k;
  return p;
}

GameResult solve(const ProblemInstance& inst, UpdateRule rule,
                 std::size_t threads) {
  GameOptions options;
  options.rule = rule;
  options.threads = threads;
  return IddeUGame(inst, options).run();
}

void expect_same_dynamics(const GameResult& expected,
                          const GameResult& actual) {
  EXPECT_EQ(expected.moves, actual.moves);
  EXPECT_EQ(expected.rounds, actual.rounds);
  EXPECT_EQ(expected.converged, actual.converged);
  ASSERT_EQ(expected.allocation.size(), actual.allocation.size());
  for (std::size_t j = 0; j < expected.allocation.size(); ++j) {
    EXPECT_EQ(expected.allocation[j], actual.allocation[j]) << "user " << j;
  }
}

// --- ThreadPool -----------------------------------------------------------

// Many producer threads hammering one pool with tiny tasks while the main
// thread repeatedly drains it: exercises every queue/in-flight transition.
TEST(ThreadPoolStress, ManyProducerChurn) {
  ThreadPool pool(hardware_threads());
  std::atomic<std::size_t> executed{0};
  constexpr std::size_t kProducers = 8;
  constexpr std::size_t kTasksPerProducer = 500;

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (std::size_t t = 0; t < kTasksPerProducer; ++t) {
        pool.submit([&] { executed.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& producer : producers) producer.join();
  pool.wait_idle();
  EXPECT_EQ(executed.load(), kProducers * kTasksPerProducer);
}

// Construction/teardown in a tight loop, destroying with work still queued:
// the destructor must drain the queue and join cleanly every time.
TEST(ThreadPoolStress, RepeatedConstructionTeardown) {
  std::atomic<std::size_t> executed{0};
  constexpr std::size_t kRounds = 50;
  constexpr std::size_t kTasksPerRound = 32;
  for (std::size_t round = 0; round < kRounds; ++round) {
    ThreadPool pool(4);
    for (std::size_t t = 0; t < kTasksPerRound; ++t) {
      pool.submit([&] { executed.fetch_add(1, std::memory_order_relaxed); });
    }
    // No wait_idle: ~ThreadPool is responsible for the drain.
  }
  EXPECT_EQ(executed.load(), kRounds * kTasksPerRound);
}

TEST(ThreadPoolStress, ZeroTasksIsClean) {
  ThreadPool pool(hardware_threads());
  pool.wait_idle();  // nothing in flight: must return immediately
}

// The pool must stay fully usable across drain cycles, including after a
// task threw inside parallel_for.
TEST(ThreadPoolStress, ReuseAfterDrainAndAfterThrow) {
  ThreadPool pool(4);
  std::atomic<std::size_t> hits{0};
  util::parallel_for(pool, 100,
                     [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 100u);

  EXPECT_THROW(
      util::parallel_for(pool, 100,
                         [&](std::size_t i) {
                           if (i == 37) throw std::runtime_error("boom");
                         }),
      std::runtime_error);

  hits.store(0);
  util::parallel_for(pool, 64, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 64u);
  pool.wait_idle();
}

// Two caller threads sharing one pool, each issuing its own parallel_for:
// per-call completion tracking must not cross wires.
TEST(ThreadPoolStress, ConcurrentParallelForCallers) {
  ThreadPool pool(hardware_threads());
  std::atomic<std::size_t> total{0};
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kCount = 200;
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int repeat = 0; repeat < 5; ++repeat) {
        util::parallel_for(pool, kCount,
                           [&](std::size_t) { total.fetch_add(1); });
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(total.load(), kCallers * 5 * kCount);
}

// --- IddeUGame parallel dirty-set refresh ---------------------------------

// Several full incremental solves at threads = hardware running in
// parallel caller threads (each with its own pool and field): any write to
// shared field/version state from the fan-out shows up as a TSan race.
TEST(GameStress, ConcurrentIncrementalSolvesAtHardwareThreads) {
  // 150 users keeps the initial all-dirty refresh above the engine's
  // serial-batch cutoff, so the pool fan-out path actually runs.
  const ProblemInstance inst = model::make_instance(shape(10, 150), 7);
  const GameResult reference = solve(inst, UpdateRule::kBestImprovement, 1);

  constexpr std::size_t kSolvers = 4;
  std::vector<GameResult> results(kSolvers);
  std::vector<std::thread> solvers;
  solvers.reserve(kSolvers);
  for (std::size_t s = 0; s < kSolvers; ++s) {
    solvers.emplace_back([&, s] {
      results[s] = solve(inst, UpdateRule::kBestImprovement, 0);
    });
  }
  for (auto& solver : solvers) solver.join();
  for (const GameResult& result : results) {
    expect_same_dynamics(reference, result);
  }
}

// threads=1 vs threads=3 vs threads=hardware vs the full-scan oracle: the
// move sequence is bit-identical for every rule (the fan-out is pure
// scheduling). The 320-user instance spans five gain blocks, and its
// kAsyncSweep sweeps re-dirty users they already re-evaluated lazily; the
// next sweep-start fan-out must list each of them once, or two lanes write
// the same cache entry (TSan flags that as a race).
TEST(GameStress, ThreadCountDeterminism) {
  constexpr UpdateRule kAllRules[] = {UpdateRule::kBestImprovement,
                                      UpdateRule::kFirstImprovement,
                                      UpdateRule::kAsyncSweep};
  std::vector<ProblemInstance> instances;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    instances.push_back(model::make_instance(shape(10, 150), seed));
  }
  instances.push_back(model::make_instance(shape(20, 320), 4));
  for (const ProblemInstance& inst : instances) {
    for (const UpdateRule rule : kAllRules) {
      GameOptions options;
      options.rule = rule;
      const GameResult full = oracle::full_scan_game(inst, options);
      for (const std::size_t threads :
           {std::size_t{1}, std::size_t{3}, std::size_t{0}}) {
        expect_same_dynamics(full, solve(inst, rule, threads));
      }
    }
  }
}

// --- logging --------------------------------------------------------------

// Concurrent writers + a thread flipping the global level: log_level() is
// an atomic and log_write serialises on the annotated mutex; TSan checks
// both. Level kOff keeps the loop from spamming test output.
TEST(LoggingStress, ConcurrentWritersAndLevelFlips) {
  const util::LogLevel before = util::log_level();
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([] {
      for (int i = 0; i < 200; ++i) {
        util::log_debug("stress {}", i);  // dropped below the threshold
      }
    });
  }
  std::thread flipper([] {
    for (int i = 0; i < 100; ++i) {
      util::set_log_level(i % 2 == 0 ? util::LogLevel::kOff
                                     : util::LogLevel::kError);
    }
  });
  for (auto& writer : writers) writer.join();
  flipper.join();
  util::set_log_level(before);
}

// --- obs telemetry --------------------------------------------------------

// Writers on every stripe plus a scraper reading mid-flight: the striped
// counter and the histogram's CAS-folded min/max/sum are all relaxed
// atomics — any non-atomic shortcut shows up as a TSan race, and the final
// quiescent totals must still be exact.
TEST(ObsStress, CounterAndHistogramHammerWithConcurrentScrape) {
  obs::Counter counter;
  obs::Histogram histogram;
  constexpr std::size_t kWriters = 8;
  constexpr std::size_t kOpsPerWriter = 4000;

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)counter.value();
      const obs::HistogramSnapshot snap = histogram.snapshot();
      // Mid-flight snapshots are relaxed but never torn or impossible.
      EXPECT_LE(snap.count, kWriters * kOpsPerWriter);
      if (snap.count > 0) {
        EXPECT_LE(snap.min, snap.max);
      }
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::size_t i = 0; i < kOpsPerWriter; ++i) {
        counter.add(1);
        histogram.record(static_cast<double>(w * kOpsPerWriter + i % 97) +
                         0.5);
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(counter.value(), kWriters * kOpsPerWriter);
  const obs::HistogramSnapshot final_snap = histogram.snapshot();
  EXPECT_EQ(final_snap.count, kWriters * kOpsPerWriter);
  EXPECT_EQ(final_snap.min, 0.5);
}

// Racing registry lookups on overlapping names while another thread
// scrapes and a third resets: the name->metric map is the one mutex-backed
// structure in the write path; handed-out references must stay valid
// through all of it.
TEST(ObsStress, RegistryLookupScrapeResetRace) {
  obs::MetricsRegistry registry;
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kOps = 2000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kOps; ++i) {
        registry.counter(i % 2 == 0 ? "stress.shared" : "stress.other")
            .add(1);
        registry.histogram("stress.hist").record(static_cast<double>(t));
        if (i % 64 == 0) (void)registry.scrape();
        if (t == 0 && i % 512 == 0) registry.reset();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Post-reset totals are unpredictable; liveness + race-freedom (under
  // TSan) are the assertions. One more write proves references survived.
  registry.counter("stress.shared").add(1);
  EXPECT_GE(registry.counter("stress.shared").value(), 1u);
}

// Spans ending on pool workers while the main thread exports: per-thread
// buffers are registered/drained under their own mutexes, and worker
// threads may exit before the export reads their events.
TEST(ObsStress, SpansFromDyingWorkersSurviveConcurrentExport) {
  obs::set_trace_enabled(true);
  obs::reset_all();
  constexpr std::size_t kRounds = 8;
  constexpr std::size_t kSpansPerRound = 64;
  for (std::size_t round = 0; round < kRounds; ++round) {
    {
      ThreadPool pool(4);
      for (std::size_t s = 0; s < kSpansPerRound; ++s) {
        pool.submit([] { const obs::ScopedSpan span("stress.worker"); });
      }
      // Export races the workers (and their teardown at scope exit).
      (void)obs::Tracer::global().chrome_trace();
    }
    (void)obs::Tracer::global().rollup_json();
  }
#if IDDE_OBS
  // chrome_trace() snapshots without draining; the rollup aggregate keeps
  // the authoritative total across every round.
  const util::Json rollup = obs::Tracer::global().rollup_json();
  ASSERT_NE(rollup.find("stress.worker"), nullptr);
  EXPECT_EQ(rollup.at("stress.worker").at("count").as_int(),
            static_cast<std::int64_t>(kRounds * kSpansPerRound));
#endif
  obs::set_trace_enabled(false);
  obs::set_enabled(false);
  obs::reset_all();
}

}  // namespace
