// Telemetry subsystem: metric primitives, registry scrape, tracer/spans,
// the Chrome trace schema, and the end-to-end observation contract (bit-
// identical solver results with telemetry on, off, or compiled out).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/game.hpp"
#include "core/greedy_delivery.hpp"
#include "core/idde_g.hpp"
#include "core/resolver.hpp"
#include "des/flow_sim.hpp"
#include "fault/fault_plan.hpp"
#include "model/instance_builder.hpp"
#include "model/instance_io.hpp"
#include "obs/obs.hpp"
#include "qos/config.hpp"
#include "sim/overload.hpp"
#include "sim/sweep.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace {

using namespace idde;

/// Every obs test starts from a clean slate: metrics zeroed, trace buffers
/// dropped, both runtime switches off (whatever the environment says).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_trace_enabled(false);
    obs::set_enabled(false);
    obs::reset_all();
  }
  void TearDown() override {
    obs::set_trace_enabled(false);
    obs::set_enabled(false);
    obs::reset_all();
  }
};

model::InstanceParams small_params() {
  model::InstanceParams p;
  p.server_count = 8;
  p.user_count = 30;
  p.data_count = 3;
  return p;
}

/// Structural check of the chrome://tracing / Perfetto trace_event format
/// we emit — the same invariants tools/obs/validate_trace.py enforces.
/// (Unused in IDDE_OBS=0 builds: every call site is behind the gate.)
[[maybe_unused]] void expect_valid_chrome_trace(const util::Json& doc,
                                                std::size_t min_events) {
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const util::JsonArray& events = doc.at("traceEvents").as_array();
  EXPECT_GE(events.size(), min_events);
  double last_ts = -1.0;
  for (const util::Json& event : events) {
    ASSERT_TRUE(event.is_object());
    EXPECT_FALSE(event.at("name").as_string().empty());
    EXPECT_EQ(event.at("cat").as_string(), "idde");
    EXPECT_EQ(event.at("ph").as_string(), "X");  // complete events only
    const double ts = event.at("ts").as_number();
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(ts, last_ts);  // sorted for stable output
    last_ts = ts;
    EXPECT_GE(event.at("dur").as_number(), 0.0);
    EXPECT_EQ(event.at("pid").as_int(), 1);
    EXPECT_GE(event.at("tid").as_int(), 0);
  }
}

TEST_F(ObsTest, CounterAccumulatesAndResets) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST_F(ObsTest, GaugeLastWriteWins) {
  obs::Gauge gauge;
  gauge.set(7);
  gauge.add(-10);
  EXPECT_EQ(gauge.value(), -3);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST_F(ObsTest, HistogramExactEndpointsAndCount) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50.0), 0.0);  // empty
  for (const double v : {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0}) h.record(v);
  EXPECT_EQ(h.count(), 8u);
  // p=0 / p=100 are the exact observed extremes, not bucket midpoints.
  EXPECT_EQ(h.percentile(0.0), 1.0);
  EXPECT_EQ(h.percentile(100.0), 9.0);
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 8u);
  EXPECT_EQ(snap.min, 1.0);
  EXPECT_EQ(snap.max, 9.0);
  EXPECT_NEAR(snap.sum, 31.0, 1e-12);
  EXPECT_NEAR(snap.mean, 31.0 / 8.0, 1e-12);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST_F(ObsTest, HistogramDropsNaNAndBucketsNegatives) {
  obs::Histogram h;
  h.record(std::nan(""));
  EXPECT_EQ(h.count(), 0u);
  h.record(-5.0);  // underflow bucket, exact min still tracked
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile(0.0), -5.0);
}

TEST_F(ObsTest, SnapshotJsonHasQuantileFields) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const util::Json doc = h.snapshot().to_json();
  for (const char* key :
       {"count", "min", "max", "mean", "p50", "p90", "p99", "p999"}) {
    EXPECT_NE(doc.find(key), nullptr) << key;
  }
  EXPECT_EQ(doc.at("count").as_int(), 100);
}

// The property the HDR layout promises: every quantile the histogram
// reports lies inside the log-bucket that holds the exact nearest-rank
// sample, and agrees with util::percentile up to bucket quantization plus
// the gap between the two quantile conventions' bracketing samples.
TEST_F(ObsTest, HistogramQuantilesMatchExactStatsWithinBucketBounds) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 5; ++trial) {
    obs::Histogram h;
    std::vector<double> samples;
    const std::size_t n = 500 + 300 * static_cast<std::size_t>(trial);
    samples.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix of scales: uniform ms-range plus a heavy exponential tail,
      // spanning several octaves of the bucket table.
      const double u = rng.uniform(0.0, 1.0);
      const double v = trial % 2 == 0
                           ? rng.uniform(0.05, 80.0)
                           : -std::log(1.0 - u * 0.9999) * 25.0;
      samples.push_back(v);
      h.record(v);
    }
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
      const double reported = h.percentile(p);
      // Exact nearest-rank order statistic the histogram quantizes.
      const auto rank = std::clamp<std::size_t>(
          static_cast<std::size_t>(
              std::ceil(p / 100.0 * static_cast<double>(n))),
          1, n);
      const double exact = sorted[rank - 1];
      const auto [lo, hi] = obs::Histogram::bucket_range(exact);
      EXPECT_GE(reported, lo) << "p" << p << " trial " << trial;
      EXPECT_LE(reported, hi) << "p" << p << " trial " << trial;
      // Cross-check against the interpolating util::stats quantile: the
      // two conventions bracket each other within one order statistic, so
      // their gap is bounded by the bucket width plus that spacing.
      const double interpolated = util::percentile(samples, p);
      const auto floor_idx = static_cast<std::size_t>(
          p / 100.0 * static_cast<double>(n - 1));
      const std::size_t lo_idx = std::min(rank - 1, floor_idx);
      const std::size_t hi_idx =
          std::max<std::size_t>(rank - 1, std::min(floor_idx + 1, n - 1));
      const double spacing = sorted[hi_idx] - sorted[lo_idx];
      EXPECT_LE(std::abs(reported - interpolated), (hi - lo) + spacing + 1e-9)
          << "p" << p << " trial " << trial;
    }
    EXPECT_EQ(h.percentile(0.0), sorted.front());
    EXPECT_EQ(h.percentile(100.0), sorted.back());
  }
}

TEST_F(ObsTest, RegistryHandsOutStableNamedMetrics) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("x.total");
  obs::Counter& b = registry.counter("x.total");
  EXPECT_EQ(&a, &b);
  a.add(3);
  registry.gauge("g").set(5);
  registry.histogram("h").record(2.0);
  const util::Json scrape = registry.scrape();
  EXPECT_EQ(scrape.at("counters").at("x.total").as_int(), 3);
  EXPECT_EQ(scrape.at("gauges").at("g").as_int(), 5);
  EXPECT_EQ(scrape.at("histograms").at("h").at("count").as_int(), 1);
  registry.reset();
  EXPECT_EQ(a.value(), 0u);  // reference survives reset
}

TEST_F(ObsTest, MacrosAreInertWhenRuntimeDisabled) {
  IDDE_OBS_COUNT("obs_test.disabled_total", 5);
  IDDE_OBS_HISTOGRAM("obs_test.disabled_hist", 1.0);
#if IDDE_OBS
  // The names must not even be registered: the scrape stays empty.
  const util::Json scrape = obs::MetricsRegistry::global().scrape();
  EXPECT_EQ(scrape.at("counters").find("obs_test.disabled_total"), nullptr);
  EXPECT_EQ(scrape.at("histograms").find("obs_test.disabled_hist"), nullptr);
#endif
}

TEST_F(ObsTest, MacrosRecordWhenEnabled) {
  obs::set_enabled(true);
  for (int i = 0; i < 3; ++i) IDDE_OBS_COUNT("obs_test.enabled_total", 2);
  IDDE_OBS_GAUGE_SET("obs_test.depth", 9);
  IDDE_OBS_HISTOGRAM("obs_test.value", 4.0);
#if IDDE_OBS
  const util::Json scrape = obs::MetricsRegistry::global().scrape();
  EXPECT_EQ(scrape.at("counters").at("obs_test.enabled_total").as_int(), 6);
  EXPECT_EQ(scrape.at("gauges").at("obs_test.depth").as_int(), 9);
  EXPECT_EQ(scrape.at("histograms").at("obs_test.value").at("count").as_int(),
            1);
#endif
}

TEST_F(ObsTest, ScopedSpanMeasuresRegardlessOfToggles) {
  const obs::ScopedSpan span("obs_test.timer");
  volatile double sink = 0.0;
  for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
  EXPECT_GE(span.elapsed_ms(), 0.0);
}

TEST_F(ObsTest, SpansFeedRollupAndChromeTrace) {
  obs::set_trace_enabled(true);  // implies enabled()
  EXPECT_TRUE(obs::enabled());
  {
    const obs::ScopedSpan outer("obs_test.outer");
    {
      const obs::ScopedSpan inner("obs_test.inner", "detail-string");
      volatile double sink = 0.0;
      for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
    }
  }
#if IDDE_OBS
  const util::Json rollup = obs::Tracer::global().rollup_json();
  ASSERT_NE(rollup.find("obs_test.outer"), nullptr);
  ASSERT_NE(rollup.find("obs_test.inner"), nullptr);
  EXPECT_EQ(rollup.at("obs_test.outer").at("count").as_int(), 1);
  // Nesting: the outer phase strictly contains the inner one.
  EXPECT_GE(rollup.at("obs_test.outer").at("total_ms").as_number(),
            rollup.at("obs_test.inner").at("total_ms").as_number());

  const util::Json trace = obs::Tracer::global().chrome_trace();
  expect_valid_chrome_trace(trace, 2);
  bool saw_args = false;
  for (const util::Json& event : trace.at("traceEvents").as_array()) {
    if (event.at("name").as_string() == "obs_test.inner") {
      saw_args = event.at("args").at("detail").as_string() == "detail-string";
    }
  }
  EXPECT_TRUE(saw_args);

  const util::TextTable table = obs::Tracer::global().rollup_table();
  (void)table;  // renders without throwing
#endif
}

TEST_F(ObsTest, TracerResetDropsEverything) {
  obs::set_trace_enabled(true);
  { const obs::ScopedSpan span("obs_test.reset_me"); }
  obs::reset_all();
#if IDDE_OBS
  EXPECT_TRUE(obs::Tracer::global().rollup_json().as_object().empty());
  EXPECT_TRUE(
      obs::Tracer::global().chrome_trace().at("traceEvents").as_array().empty());
  // Spans after the reset land in the fresh epoch's buffers.
  { const obs::ScopedSpan span("obs_test.after_reset"); }
  EXPECT_EQ(obs::Tracer::global()
                .chrome_trace()
                .at("traceEvents")
                .as_array()
                .size(),
            1u);
#endif
}

// The observation contract: enabling full telemetry must not perturb the
// solver — identical move sequences, evaluation counts, and allocations.
TEST_F(ObsTest, GameResultsBitIdenticalWithTelemetryOn) {
  const model::ProblemInstance instance =
      model::make_instance(small_params(), 77);

  core::IddeUGame off_game(instance, core::GameOptions{});
  const core::GameResult off = off_game.run();

  obs::set_trace_enabled(true);
  core::IddeUGame on_game(instance, core::GameOptions{});
  const core::GameResult on = on_game.run();

  EXPECT_EQ(on.moves, off.moves);
  EXPECT_EQ(on.rounds, off.rounds);
  EXPECT_EQ(on.benefit_evaluations, off.benefit_evaluations);
  EXPECT_TRUE(on.allocation == off.allocation);
}

// Instance IO is observed by one span per direction and a byte counter
// each; the written bytes and the loaded instance do not depend on it.
TEST_F(ObsTest, InstanceIoSpansAndByteCountersLeaveBytesAlone) {
  const model::ProblemInstance instance =
      model::make_instance(small_params(), 21);
  const std::string off = model::instance_to_string(instance, 1);
  const std::string off_back =
      model::instance_to_string(model::instance_from_string(off), 1);

  obs::set_trace_enabled(true);
  const std::string on = model::instance_to_string(instance, 1);
  const std::string on_back =
      model::instance_to_string(model::instance_from_string(on), 1);
  EXPECT_EQ(on, off);
  EXPECT_EQ(on_back, off_back);
  EXPECT_EQ(on_back, on);
#if IDDE_OBS
  const util::Json counters = obs::MetricsRegistry::global().scrape().at(
      "counters");
  EXPECT_EQ(counters.at("instance.bytes_written_total").as_int(),
            static_cast<std::int64_t>(2 * on.size()));
  EXPECT_EQ(counters.at("instance.bytes_read_total").as_int(),
            static_cast<std::int64_t>(on.size()));
  const util::Json rollup = obs::Tracer::global().rollup_json();
  EXPECT_EQ(rollup.at("instance.write").at("count").as_int(), 2);
  EXPECT_EQ(rollup.at("instance.read").at("count").as_int(), 1);
#endif
}

// The builder's span and the gain-entry counter (on build and on read)
// leave the instance bit-identical.
TEST_F(ObsTest, InstanceBuildSpanAndGainCounterLeaveInstanceAlone) {
  const std::string off =
      model::instance_to_string(model::make_instance(small_params(), 22));

  obs::set_trace_enabled(true);
  const model::ProblemInstance instance =
      model::make_instance(small_params(), 22);
  const std::string on = model::instance_to_string(instance);
  EXPECT_EQ(on, off);
  const model::ProblemInstance back = model::instance_from_string(on);
  EXPECT_EQ(back.radio_env().gain, instance.radio_env().gain);
#if IDDE_OBS
  const util::Json counters = obs::MetricsRegistry::global().scrape().at(
      "counters");
  EXPECT_EQ(counters.at("instance.gain_entries_total").as_int(),
            static_cast<std::int64_t>(2 * instance.radio_env().gain.size()));
  const util::Json rollup = obs::Tracer::global().rollup_json();
  EXPECT_EQ(rollup.at("instance.build").at("count").as_int(), 1);
#endif
}

// End to end: a sweep cell and a DES replay under full telemetry produce a
// schema-valid trace and a telemetry block with quantiles for the phases
// named in the acceptance criteria.
TEST_F(ObsTest, SweepAndDesProduceTraceAndTelemetryBlock) {
  obs::set_trace_enabled(true);

  std::vector<sim::SweepPoint> points{{"p0", small_params()}};
  std::vector<core::ApproachPtr> approaches;
  approaches.push_back(std::make_unique<core::IddeG>());
  sim::SweepOptions options;
  options.repetitions = 2;
  options.base_seed = 5;
  options.threads = 2;
  const auto results = sim::run_sweep(points, approaches, options);
  ASSERT_EQ(results.size(), 1u);

  const model::ProblemInstance instance =
      model::make_instance(small_params(), 5);
  util::Rng rng(5);
  const core::Strategy strategy = core::IddeG().solve(instance, rng);
  des::FlowSimOptions sim_options;
  sim_options.arrival_window_s = 5.0;
  const des::FlowSimResult replay =
      des::FlowLevelSimulator(instance, sim_options).run(strategy, rng);
  EXPECT_FALSE(replay.flows.empty());

#if IDDE_OBS
  const util::Json telemetry = obs::telemetry_json();
  for (const char* section :
       {"counters", "gauges", "histograms", "spans"}) {
    EXPECT_NE(telemetry.find(section), nullptr) << section;
  }
  // Game rounds, delivery resolution, and flow durations all expose
  // p50/p99/max quantiles.
  for (const char* name :
       {"game.rounds", "delivery.request_latency_ms", "des.flow_duration_ms"}) {
    const util::Json* hist = telemetry.at("histograms").find(name);
    ASSERT_NE(hist, nullptr) << name;
    EXPECT_GT(hist->at("count").as_int(), 0) << name;
    for (const char* q : {"p50", "p99", "max"}) {
      EXPECT_NE(hist->find(q), nullptr) << name << "." << q;
    }
  }
  EXPECT_GT(
      telemetry.at("counters").at("delivery.plans_total").as_int(), 0);
  EXPECT_GT(telemetry.at("counters").at("des.flows_total").as_int(), 0);
  // Eq. 8 tier counters: a fault-free DES replay resolves without the
  // failover path, so tiers come from the crash/fault layers; the greedy
  // planner's request-latency histogram above stands in for resolution.

  // The sweep ran under the pool: worker-thread spans must appear in the
  // trace alongside the main thread's.
  const util::Json trace = obs::Tracer::global().chrome_trace();
  expect_valid_chrome_trace(trace, 4);
  bool saw_cell = false;
  bool saw_solve = false;
  bool saw_des = false;
  for (const util::Json& event : trace.at("traceEvents").as_array()) {
    const std::string& name = event.at("name").as_string();
    saw_cell = saw_cell || name == "sweep.cell";
    saw_solve = saw_solve || name == "solve.IDDE-G";
    saw_des = saw_des || name == "des.run";
  }
  EXPECT_TRUE(saw_cell);
  EXPECT_TRUE(saw_solve);
  EXPECT_TRUE(saw_des);

  // The trace round-trips through the JSON writer/parser (what the CI
  // artifact step and tools/obs/validate_trace.py consume).
  const util::Json reparsed = util::Json::parse(trace.dump(1));
  expect_valid_chrome_trace(reparsed, 4);
#endif
}

// Eq. 8 tier counters: every resolution is counted exactly once — in an
// analytic failover loop (a single-server crash forces some resolutions
// off the primary tier) and in DES replays under deadline-aware QoS, where
// the shedding estimate is not a delivery and stays uncounted.
TEST_F(ObsTest, FailoverResolutionCountsTiers) {
  obs::set_enabled(true);
  const model::ProblemInstance instance =
      model::make_instance(small_params(), 9);
  util::Rng rng(9);
  const core::Strategy strategy = core::IddeG().solve(instance, rng);

  // Every resolution since the last check is counted once per tier and
  // once in the latency histogram.
  const auto expect_counted = [](std::size_t resolutions) {
#if IDDE_OBS
    const util::Json scrape = obs::MetricsRegistry::global().scrape();
    const auto tier = [&](const char* name) {
      const util::Json* counter = scrape.at("counters").find(name);
      return counter == nullptr ? std::int64_t{0} : counter->as_int();
    };
    EXPECT_EQ(tier("resolve.primary_total") + tier("resolve.replica_total") +
                  tier("resolve.cloud_total"),
              static_cast<std::int64_t>(resolutions));
    const util::Json* latency =
        scrape.at("histograms").find("resolve.latency_ms");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->at("count").as_int(),
              static_cast<std::int64_t>(resolutions));
#else
    (void)resolutions;
#endif
    obs::reset_all();
  };

  std::size_t resolutions = 0;
  core::Eq8Resolver resolver(instance);
  std::vector<std::uint8_t> up(instance.server_count(), 1);
  up[0] = 0;
  std::vector<std::size_t> hosts;
  for (std::size_t j = 0; j < instance.user_count(); ++j) {
    const core::ChannelSlot slot = strategy.allocation[j];
    const std::size_t serving =
        slot.allocated() ? slot.server : core::ChannelSlot::kNone;
    for (const std::size_t k : instance.requests().items_of(j)) {
      hosts.clear();
      for (const std::size_t host : strategy.delivery.hosts(k)) {
        if (!strategy.collaborative_delivery && host != serving) continue;
        hosts.push_back(host);
      }
      const double size = instance.data(k).size_mb;
      (void)resolver.resolve({.hosts = hosts,
                              .serving = serving,
                              .item_mb = size,
                              .fragment_mb = size,
                              .server_up = up});
      ++resolutions;
    }
  }
  expect_counted(resolutions);

  // A replay resolves once per started attempt: every aborted attempt, and
  // the last one unless the request went cloud-direct past the caps.
  const auto replay_resolutions = [](const des::FlowSimResult& result) {
    std::size_t count = 0;
    for (const des::FlowRecord& flow : result.flows) {
      if (flow.outcome != des::FlowOutcome::kServed) continue;
      count += flow.retries + (flow.forced_cloud ? 0 : 1);
    }
    return count;
  };
  qos::QosConfig qos =
      sim::chaos_qos_config(4.0, qos::SheddingPolicy::kDeadlineAware, 0.1);
  qos.admission.service_slots = 0;  // slots have no coded meaning
  const auto plan = fault::FaultPlan::generate(
      instance, sim::chaos_fault_profile(), 9);
  des::FlowSimOptions options;
  options.link_capacity_scale = 0.05;
  options.fault_plan = &plan;
  options.qos = &qos;
  const des::FlowLevelSimulator sim(instance, options);

  util::Rng replicated_rng(9);
  const des::FlowSimResult replicated = sim.run(strategy, replicated_rng);
  EXPECT_GT(replicated.retry_count, 0u);
  expect_counted(replay_resolutions(replicated));

  core::GreedyDeliveryPlanner planner(instance);
  auto planned =
      planner.plan(strategy.allocation, {instance.server_count(), 2});
  core::Strategy coded(strategy.allocation,
                       core::DeliveryProfile(planned.delivery));
  coded.collaborative_delivery = strategy.collaborative_delivery;
  util::Rng coded_rng(9);
  const des::FlowSimResult coded_result = sim.run(coded, coded_rng);
  EXPECT_GT(coded_result.retry_count, 0u);
  expect_counted(replay_resolutions(coded_result));
}

}  // namespace
