// Gray-failure subsystem: DegradationPlan schedules (determinism, shape,
// IO), HealthTracker scoring/hysteresis, the health-aware Eq. 8 resolver,
// gray effects in the DES (slowed legs, the loss lottery with exact lost-
// byte accounting, health routing, composition with faults, admission
// control and coding), and the serve controller's gray event class with
// checkpoint/restore under an active plan. The zero-cost-when-disabled
// contract — an inert plan replays bit-identically to no plan — is
// asserted field by field.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/greedy_delivery.hpp"
#include "core/health.hpp"
#include "core/idde_g.hpp"
#include "core/resolver.hpp"
#include "fault/fault_plan.hpp"
#include "des/flow_sim.hpp"
#include "fault/degradation.hpp"
#include "model/instance.hpp"
#include "model/instance_builder.hpp"
#include "net/graph.hpp"
#include "net/latency.hpp"
#include "net/shortest_path.hpp"
#include "qos/config.hpp"
#include "serve/controller.hpp"
#include "sim/paper.hpp"
#include "util/json.hpp"

namespace {

using namespace idde;

model::InstanceParams small_params() {
  model::InstanceParams p = sim::paper_default_params();
  p.server_count = 10;
  p.user_count = 50;
  p.data_count = 4;
  return p;
}

fault::DegradationProfile heavy_profile() {
  fault::DegradationProfile profile;
  profile.horizon_s = 120.0;
  profile.gray_fraction = 0.5;
  profile.peak_multiplier_min = 8.0;
  profile.peak_multiplier_max = 8.0;
  profile.onset_latest_s = 0.5;
  // Plateau-only lottery: the whole episode sits at the peak, so the
  // gray/healthy contrast is maximal and stable over the run.
  profile.ramp_weight = 0.0;
  profile.flap_weight = 0.0;
  profile.plateau_s = 110.0;
  return profile;
}

core::Strategy solve(const model::ProblemInstance& inst, std::uint64_t seed) {
  const core::IddeGOptions options;
  util::Rng rng(seed);
  return core::IddeG(options).solve(inst, rng);
}

// --- DegradationPlan -----------------------------------------------------

TEST(DegradationPlan, PureFunctionOfTopologyProfileAndSeed) {
  const auto inst = model::make_instance(small_params(), 3);
  fault::DegradationProfile profile;
  profile.gray_fraction = 0.6;
  profile.loss_prob_max = 0.1;
  const auto a = fault::DegradationPlan::generate(inst, profile, 41);
  const auto b = fault::DegradationPlan::generate(inst, profile, 41);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.inert());
  const auto c = fault::DegradationPlan::generate(inst, profile, 42);
  EXPECT_NE(a, c);

  const fault::DegradationProfile off;  // gray_fraction = 0
  ASSERT_TRUE(off.inert());
  EXPECT_TRUE(fault::DegradationPlan::generate(inst, off, 41).inert());
}

TEST(DegradationPlan, GeneratedSegmentsAreWellFormed) {
  const auto inst = model::make_instance(small_params(), 4);
  fault::DegradationProfile profile;
  profile.gray_fraction = 0.8;
  profile.loss_prob_max = 0.2;
  const auto plan = fault::DegradationPlan::generate(inst, profile, 99);
  ASSERT_FALSE(plan.inert());

  for (const auto& segments : plan.server_segments()) {
    double prev_end = 0.0;
    for (const auto& s : segments) {
      EXPECT_GE(s.start_s, prev_end);
      EXPECT_GT(s.end_s, s.start_s);
      EXPECT_LE(s.end_s, plan.horizon_s());
      EXPECT_GE(s.latency_multiplier, 1.0);
      EXPECT_LE(s.latency_multiplier, profile.peak_multiplier_max);
      EXPECT_GE(s.loss_prob, 0.0);
      EXPECT_LE(s.loss_prob, profile.loss_prob_max);
      prev_end = s.end_s;
    }
  }
  const auto& changes = plan.change_times();
  EXPECT_TRUE(std::is_sorted(changes.begin(), changes.end()));
  EXPECT_EQ(std::adjacent_find(changes.begin(), changes.end()),
            changes.end());
  // Outside the horizon everything is healthy.
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    EXPECT_EQ(plan.latency_multiplier(i, plan.horizon_s() + 1.0), 1.0);
    EXPECT_EQ(plan.loss_prob(i, plan.horizon_s() + 1.0), 0.0);
  }
}

TEST(DegradationPlan, PointQueriesAreHalfOpen) {
  fault::DegradationPlan plan;
  plan.add_server_segment(2, {1.0, 5.0, 4.0, 0.25});
  plan.add_server_segment(2, {5.0, 9.0, 2.0, 0.0});
  plan.set_loss_seed(7);

  EXPECT_EQ(plan.latency_multiplier(2, 0.5), 1.0);   // before onset
  EXPECT_EQ(plan.latency_multiplier(2, 1.0), 4.0);   // inclusive start
  EXPECT_EQ(plan.latency_multiplier(2, 4.999), 4.0);
  EXPECT_EQ(plan.latency_multiplier(2, 5.0), 2.0);   // exclusive end
  EXPECT_EQ(plan.latency_multiplier(2, 9.0), 1.0);
  EXPECT_EQ(plan.loss_prob(2, 3.0), 0.25);
  EXPECT_EQ(plan.loss_prob(2, 6.0), 0.0);
  // Untouched servers are healthy at every time.
  EXPECT_EQ(plan.latency_multiplier(0, 3.0), 1.0);
  EXPECT_EQ(plan.loss_prob(0, 3.0), 0.0);

  EXPECT_EQ(plan.next_change_after(0.0), 1.0);
  EXPECT_EQ(plan.next_change_after(1.0), 5.0);
  EXPECT_EQ(plan.next_change_after(5.0), 9.0);
  EXPECT_EQ(plan.next_change_after(9.0), fault::kNeverChanges);
}

TEST(DegradationPlan, LossLotteryIsStatelessAndCalibrated) {
  fault::DegradationPlan plan;
  plan.add_server_segment(0, {0.0, 10.0, 2.0, 0.5});
  plan.set_loss_seed(0xabcde);

  std::size_t lost = 0;
  for (std::uint64_t flow = 0; flow < 2000; ++flow) {
    const bool first = plan.leg_lost(0, flow, 0, 1.0);
    EXPECT_EQ(first, plan.leg_lost(0, flow, 0, 1.0));  // stateless replay
    lost += first ? 1 : 0;
  }
  EXPECT_GT(lost, 2000u * 4 / 10);
  EXPECT_LT(lost, 2000u * 6 / 10);
  // Retries re-draw: some flow must differ between attempt 0 and 1.
  bool attempt_matters = false;
  for (std::uint64_t flow = 0; flow < 64 && !attempt_matters; ++flow) {
    attempt_matters = plan.leg_lost(0, flow, 0, 1.0) !=
                      plan.leg_lost(0, flow, 1, 1.0);
  }
  EXPECT_TRUE(attempt_matters);
  // Outside every segment the lottery never fires.
  EXPECT_FALSE(plan.leg_lost(0, 1, 0, 11.0));
}

TEST(DegradationPlan, JsonRoundTripsBitIdentically) {
  const auto inst = model::make_instance(small_params(), 5);
  fault::DegradationProfile profile;
  profile.gray_fraction = 0.7;
  profile.loss_prob_max = 0.15;
  const auto plan = fault::DegradationPlan::generate(inst, profile, 1234);
  ASSERT_FALSE(plan.inert());

  const std::string text = fault::degradation_to_string(plan, 2);
  const auto reloaded = fault::degradation_from_string(inst, text);
  EXPECT_EQ(reloaded, plan);
  EXPECT_EQ(fault::degradation_to_string(reloaded, 2), text);
}

TEST(DegradationPlan, MalformedDocumentsThrowStructuredErrors) {
  const auto inst = model::make_instance(small_params(), 6);
  const char* const bad[] = {
      // Wrong format tag.
      R"({"format":"idde-degradation-plan-v9","horizon_s":10.0,)"
      R"("loss_seed":"0","servers":[]})",
      // Server id out of range for the instance.
      R"({"format":"idde-degradation-plan-v1","horizon_s":10.0,)"
      R"("loss_seed":"0","servers":[{"server":99,"segments":[)"
      R"({"start_s":0.0,"end_s":1.0,"latency_multiplier":2.0,)"
      R"("loss_prob":0.0}]}]})",
      // Overlapping segments.
      R"({"format":"idde-degradation-plan-v1","horizon_s":10.0,)"
      R"("loss_seed":"0","servers":[{"server":0,"segments":[)"
      R"({"start_s":0.0,"end_s":5.0,"latency_multiplier":2.0,)"
      R"("loss_prob":0.0},)"
      R"({"start_s":4.0,"end_s":6.0,"latency_multiplier":2.0,)"
      R"("loss_prob":0.0}]}]})",
      // Segment past the horizon.
      R"({"format":"idde-degradation-plan-v1","horizon_s":10.0,)"
      R"("loss_seed":"0","servers":[{"server":0,"segments":[)"
      R"({"start_s":0.0,"end_s":11.0,"latency_multiplier":2.0,)"
      R"("loss_prob":0.0}]}]})",
      // Certain loss is not a valid probability.
      R"({"format":"idde-degradation-plan-v1","horizon_s":10.0,)"
      R"("loss_seed":"0","servers":[{"server":0,"segments":[)"
      R"({"start_s":0.0,"end_s":1.0,"latency_multiplier":2.0,)"
      R"("loss_prob":1.0}]}]})",
      // Same server listed twice.
      R"({"format":"idde-degradation-plan-v1","horizon_s":10.0,)"
      R"("loss_seed":"0","servers":[)"
      R"({"server":0,"segments":[{"start_s":0.0,"end_s":1.0,)"
      R"("latency_multiplier":2.0,"loss_prob":0.0}]},)"
      R"({"server":0,"segments":[{"start_s":2.0,"end_s":3.0,)"
      R"("latency_multiplier":2.0,"loss_prob":0.0}]}]})",
  };
  for (const char* text : bad) {
    EXPECT_THROW((void)fault::degradation_from_string(inst, text),
                 util::JsonError)
        << text;
  }
}

// --- HealthTracker -------------------------------------------------------

TEST(HealthTracker, FreshTrackerScoresExactlyOne) {
  core::HealthTracker tracker(4, {});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tracker.score(i), 1.0);
    EXPECT_FALSE(tracker.demoted(i));
  }
}

TEST(HealthTracker, DemotionIsHystereticAndSampleGated) {
  core::HealthConfig config;  // demote < 0.6, recover > 0.8, min_samples 3
  core::HealthTracker tracker(2, config);

  // Two 4x-slow legs: score well below the demote mark, but the sample
  // gate holds the latch.
  tracker.record_leg(0, 1.0, 4.0);
  tracker.record_leg(0, 1.0, 4.0);
  EXPECT_LT(tracker.score(0), config.demote_score);
  EXPECT_FALSE(tracker.demoted(0));
  tracker.record_leg(0, 1.0, 4.0);
  EXPECT_TRUE(tracker.demoted(0));

  // Recovery: on-time legs decay the EWMA; the latch only releases above
  // the high-water mark, then stays released.
  std::size_t legs_until_recovered = 0;
  while (tracker.demoted(0)) {
    ASSERT_LT(legs_until_recovered, 100u);
    tracker.record_leg(0, 1.0, 1.0);
    ++legs_until_recovered;
  }
  EXPECT_GT(tracker.score(0), config.recover_score);
  EXPECT_GT(legs_until_recovered, 1u);  // hysteresis: not an instant flip

  // An untouched neighbour was never affected.
  EXPECT_EQ(tracker.score(1), 1.0);
}

TEST(HealthTracker, LossesDepressTheScoreWithoutLatencyEvidence) {
  core::HealthConfig config;
  config.loss_weight = 2.0;
  core::HealthTracker tracker(1, config);
  tracker.record_leg(0, 1.0, 1.0);  // on time
  EXPECT_EQ(tracker.score(0), 1.0);
  tracker.record_loss(0);
  tracker.record_loss(0);
  // loss_frac = 2/3, score = 1 / (1 + 2 * 2/3).
  EXPECT_LT(tracker.score(0), 0.5);
  EXPECT_TRUE(tracker.demoted(0));
}

TEST(HealthTracker, StateRoundTripsThroughRestore) {
  core::HealthTracker tracker(3, {});
  tracker.record_leg(0, 1.0, 5.0);
  tracker.record_leg(0, 1.0, 5.0);
  tracker.record_leg(0, 1.0, 5.0);
  tracker.record_loss(1);

  core::HealthTracker twin(3, {});
  twin.restore_state(tracker.state());
  EXPECT_EQ(twin.state(), tracker.state());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(twin.score(i), tracker.score(i));
    EXPECT_EQ(twin.demoted(i), tracker.demoted(i));
  }
}

// --- health-weighted Eq. 8 ----------------------------------------------

TEST(HealthResolver, DemotedSourceLosesTheArgmin) {
  const auto inst = model::make_instance(small_params(), 12);
  const auto strategy = solve(inst, 12);
  core::Eq8Resolver resolver(inst);

  // Find a request whose fault-free argmin is an edge server with at
  // least one other live replica to fall back to.
  for (std::size_t user = 0; user < inst.user_count(); ++user) {
    const core::ChannelSlot slot = strategy.allocation[user];
    const std::size_t serving =
        slot.allocated() ? slot.server : core::ChannelSlot::kNone;
    for (std::size_t item = 0; item < inst.data_count(); ++item) {
      const auto hosts = strategy.delivery.hosts(item);
      if (hosts.size() < 2) continue;
      const double size = inst.data(item).size_mb;
      core::Eq8Request request{.hosts = hosts,
                               .serving = serving,
                               .item_mb = size,
                               .fragment_mb = size};
      const core::Eq8Resolution plain = resolver.resolve(request);
      const std::size_t plain_source = plain.source();
      const double plain_seconds = plain.seconds;
      if (plain_source == core::kCloudSource) continue;

      // Crush the winner's health; the weighted argmin must move off it.
      core::HealthTracker tracker(inst.server_count(), {});
      for (int leg = 0; leg < 5; ++leg) {
        tracker.record_leg(plain_source, 1.0, 1e6);
      }
      request.health = &tracker;
      const core::Eq8Resolution scored = resolver.resolve(request);
      EXPECT_NE(scored.source(), plain_source);
      // The reported seconds are the chosen source's unweighted latency —
      // the score shapes the choice, never the physics — so steering away
      // from the fastest replica cannot *reduce* the reported latency.
      EXPECT_GE(scored.seconds, plain_seconds);
      return;  // one witness is enough
    }
  }
  FAIL() << "no edge-served request with a fallback replica found";
}

// --- gray effects in the DES --------------------------------------------

void expect_same_result(const des::FlowSimResult& a,
                        const des::FlowSimResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].arrival_s, b.flows[f].arrival_s) << f;
    EXPECT_EQ(a.flows[f].completion_s, b.flows[f].completion_s) << f;
    EXPECT_EQ(a.flows[f].retries, b.flows[f].retries) << f;
    EXPECT_EQ(a.flows[f].tier, b.flows[f].tier) << f;
    EXPECT_EQ(a.flows[f].outcome, b.flows[f].outcome) << f;
    EXPECT_EQ(a.flows[f].losses, b.flows[f].losses) << f;
  }
  EXPECT_EQ(a.mean_duration_ms, b.mean_duration_ms);
  EXPECT_EQ(a.p99_duration_ms, b.p99_duration_ms);
  EXPECT_EQ(a.max_duration_ms, b.max_duration_ms);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.retry_count, b.retry_count);
  EXPECT_EQ(a.tier_counts, b.tier_counts);
  EXPECT_EQ(a.rate_recomputations, b.rate_recomputations);
  EXPECT_EQ(a.lost_mb, b.lost_mb);
  EXPECT_EQ(a.loss_aborts, b.loss_aborts);
  EXPECT_EQ(a.qos.shed, b.qos.shed);
  EXPECT_EQ(a.qos.rejected, b.qos.rejected);
  EXPECT_EQ(a.qos.breaker_opens, b.qos.breaker_opens);
  EXPECT_EQ(a.qos.retries_denied, b.qos.retries_denied);
}

/// Every server degraded by `multiplier` with leg-loss `loss` for the
/// whole run.
fault::DegradationPlan uniform_gray(const model::ProblemInstance& inst,
                                    double multiplier, double loss,
                                    std::uint64_t seed) {
  fault::DegradationPlan plan;
  for (std::size_t i = 0; i < inst.server_count(); ++i) {
    plan.add_server_segment(i, {0.0, 300.0, multiplier, loss});
  }
  plan.set_loss_seed(seed);
  return plan;
}

TEST(GrayDes, InertGrayLayerReplaysBitIdentically) {
  const auto inst = model::make_instance(small_params(), 21);
  const auto strategy = solve(inst, 21);

  des::FlowSimOptions plain_options;
  plain_options.arrival_window_s = 15.0;
  util::Rng rng_plain(21);
  const auto plain =
      des::FlowLevelSimulator(inst, plain_options).run(strategy, rng_plain);

  // Inert plan attached, health routing requested: nothing to observe, so
  // the same events and the same floats.
  const fault::DegradationPlan inert_plan;
  ASSERT_TRUE(inert_plan.inert());
  des::FlowSimOptions gray_options = plain_options;
  gray_options.degradation = &inert_plan;
  gray_options.health_aware = true;
  util::Rng rng_gray(21);
  const auto gray =
      des::FlowLevelSimulator(inst, gray_options).run(strategy, rng_gray);
  expect_same_result(gray, plain);
  EXPECT_EQ(gray.lost_mb, 0.0);
}

TEST(GrayDes, GrayPlanInflatesTheBlindReplay) {
  const auto inst = model::make_instance(small_params(), 22);
  const auto strategy = solve(inst, 22);
  const auto plan =
      fault::DegradationPlan::generate(inst, heavy_profile(), 22);
  ASSERT_FALSE(plan.inert());

  des::FlowSimOptions options;
  options.arrival_window_s = 15.0;
  util::Rng rng_a(22);
  const auto healthy =
      des::FlowLevelSimulator(inst, options).run(strategy, rng_a);

  options.degradation = &plan;  // binary-blind: gray physics, no defences
  util::Rng rng_b(22);
  const auto degraded =
      des::FlowLevelSimulator(inst, options).run(strategy, rng_b);

  EXPECT_GT(degraded.mean_duration_ms, healthy.mean_duration_ms);
  for (const auto& flow : degraded.flows) {
    EXPECT_GE(flow.completion_s, flow.arrival_s);
  }
}

TEST(GrayDes, HealthAwareRoutingBeatsTheBlindReplayUnderHeavyGray) {
  double blind_total = 0.0;
  double defended_total = 0.0;
  for (std::uint64_t seed = 31; seed <= 33; ++seed) {
    const auto inst = model::make_instance(small_params(), seed);
    const auto strategy = solve(inst, seed);
    const auto plan =
        fault::DegradationPlan::generate(inst, heavy_profile(), seed);
    ASSERT_FALSE(plan.inert());

    des::FlowSimOptions options;
    options.arrival_window_s = 15.0;
    options.degradation = &plan;
    util::Rng rng_a(seed);
    blind_total += des::FlowLevelSimulator(inst, options)
                       .run(strategy, rng_a)
                       .mean_duration_ms;

    options.health_aware = true;
    util::Rng rng_b(seed);
    defended_total += des::FlowLevelSimulator(inst, options)
                          .run(strategy, rng_b)
                          .mean_duration_ms;
  }
  EXPECT_LT(defended_total, blind_total);
}

TEST(GrayDes, LossAccountingIsExact) {
  const auto inst = model::make_instance(small_params(), 24);
  const auto strategy = solve(inst, 24);
  // Every server mildly (2x) slow with real loss.
  fault::DegradationProfile profile = heavy_profile();
  profile.gray_fraction = 1.0;
  profile.peak_multiplier_min = 2.0;
  profile.peak_multiplier_max = 2.0;
  profile.loss_prob_max = 0.3;
  const auto plan = fault::DegradationPlan::generate(inst, profile, 24);
  ASSERT_FALSE(plan.inert());

  des::FlowSimOptions options;
  options.arrival_window_s = 15.0;
  options.degradation = &plan;
  options.health_aware = true;
  util::Rng rng(24);
  const auto result =
      des::FlowLevelSimulator(inst, options).run(strategy, rng);

  std::size_t losses = 0;
  double lost_mb = 0.0;
  for (const auto& flow : result.flows) {
    EXPECT_GE(flow.completion_s, flow.arrival_s);
    losses += flow.losses;
    // A lost leg transfers the whole item before its check fails.
    lost_mb += static_cast<double>(flow.losses) * inst.data(flow.item).size_mb;
  }
  EXPECT_EQ(losses, result.loss_aborts);
  EXPECT_GT(result.loss_aborts, 0u);
  EXPECT_NEAR(result.lost_mb, lost_mb, 1e-9 * lost_mb);
  // Without a fault plan every abort is a loss.
  EXPECT_EQ(result.retry_count, result.loss_aborts);
  // Offered == served: gray effects never shed.
  EXPECT_EQ(result.qos.offered, result.flows.size());
  EXPECT_EQ(result.qos.admitted, result.flows.size());

  // Same seed, same options: the replay is deterministic.
  util::Rng rng2(24);
  const auto replay =
      des::FlowLevelSimulator(inst, options).run(strategy, rng2);
  expect_same_result(replay, result);
}

TEST(GrayDes, PureLossPlanForcesRetriesButEveryFlowCompletes) {
  const auto inst = model::make_instance(small_params(), 25);
  const auto strategy = solve(inst, 25);

  // Lossy but not slow: every edge leg plays a 0.5 lottery; retries (and
  // ultimately the cloud) must still serve 100%.
  const auto plan = uniform_gray(inst, 1.0, 0.5, 25);

  des::FlowSimOptions options;
  options.arrival_window_s = 15.0;
  options.degradation = &plan;
  util::Rng rng(25);
  const auto result =
      des::FlowLevelSimulator(inst, options).run(strategy, rng);

  EXPECT_GT(result.loss_aborts, 0u);
  EXPECT_GT(result.lost_mb, 0.0);  // lost legs transfer fully
  for (const auto& flow : result.flows) {
    EXPECT_GE(flow.completion_s, flow.arrival_s);
  }
}

TEST(GrayDes, ComposesWithABinaryFaultPlan) {
  const auto inst = model::make_instance(small_params(), 26);
  const auto strategy = solve(inst, 26);

  fault::FaultProfile faults;
  faults.horizon_s = 45.0;
  faults.server_mtbf_s = 15.0;
  faults.server_mttr_s = 5.0;
  const auto fault_plan = fault::FaultPlan::generate(inst, faults, 26);
  ASSERT_FALSE(fault_plan.inert());
  const auto gray_plan =
      fault::DegradationPlan::generate(inst, heavy_profile(), 26);
  ASSERT_FALSE(gray_plan.inert());

  des::FlowSimOptions options;
  options.arrival_window_s = 15.0;
  options.fault_plan = &fault_plan;
  options.degradation = &gray_plan;
  options.health_aware = true;
  util::Rng rng(26);
  const auto result =
      des::FlowLevelSimulator(inst, options).run(strategy, rng);

  for (const auto& flow : result.flows) {
    EXPECT_GE(flow.completion_s, flow.arrival_s);
  }
  util::Rng rng2(26);
  const auto replay =
      des::FlowLevelSimulator(inst, options).run(strategy, rng2);
  expect_same_result(replay, result);
}

// Gray x admission control: slow legs complete (nothing aborts), but with
// slow_ratio set every inflated completion is a breaker failure, so gray
// servers are tripped out of the rotation.
TEST(GrayDes, SlowServersTripBreakersUnderAdmissionControl) {
  const auto inst = model::make_instance(small_params(), 27);
  const auto strategy = solve(inst, 27);
  const auto plan = uniform_gray(inst, 8.0, 0.0, 27);

  qos::QosConfig qos;
  qos.arrivals.process = qos::ArrivalProcess::kPoisson;
  qos.arrivals.load_multiplier = 3.0;
  qos.arrivals.window_s = 10.0;
  qos.admission.policy = qos::SheddingPolicy::kDeadlineAware;
  qos.admission.service_slots = 2;
  qos.admission.queue_capacity = 4;
  qos.admission.deadline_s = 2.0;
  qos.admission.local_service_s_per_mb = 0.02;
  qos.retry_budget.ratio = 0.1;
  qos.breaker.enabled = true;
  qos.breaker.window = 8;
  qos.breaker.min_samples = 3;
  qos.breaker.open_duration_s = 1.0;
  qos.breaker.slow_ratio = 3.0;

  des::FlowSimOptions options;
  options.qos = &qos;
  const auto replay = [&](const fault::DegradationPlan* gray) {
    des::FlowSimOptions with = options;
    with.degradation = gray;
    util::Rng rng(27);
    return des::FlowLevelSimulator(inst, with).run(strategy, rng);
  };
  const auto healthy = replay(nullptr);
  const auto gray = replay(&plan);

  EXPECT_GT(gray.qos.breaker_opens, healthy.qos.breaker_opens);
  EXPECT_GT(gray.qos.breaker_opens, 0u);
  for (const auto* result : {&healthy, &gray}) {
    EXPECT_EQ(result->qos.offered, result->flows.size());
    EXPECT_EQ(result->qos.admitted + result->qos.shed + result->qos.rejected,
              result->qos.offered);
  }
  expect_same_result(replay(&plan), gray);
}

// Gray x coding: a slowed fragment host stretches the attempt (it completes
// on its last leg), and a lost fragment invalidates the whole fragment set.
TEST(GrayDes, ComposesWithCodedDelivery) {
  const auto inst = model::make_instance(small_params(), 28);
  const auto strategy = solve(inst, 28);
  core::GreedyDeliveryPlanner planner(inst);
  const auto planned =
      planner.plan(strategy.allocation, {inst.server_count(), 2});
  core::Strategy coded(strategy.allocation,
                       core::DeliveryProfile(planned.delivery));
  coded.collaborative_delivery = strategy.collaborative_delivery;

  des::FlowSimOptions options;
  options.arrival_window_s = 15.0;
  const auto replay = [&](const fault::DegradationPlan* gray) {
    des::FlowSimOptions with = options;
    with.degradation = gray;
    util::Rng rng(28);
    return des::FlowLevelSimulator(inst, with).run(coded, rng);
  };

  const auto healthy = replay(nullptr);
  const auto slow_plan = uniform_gray(inst, 4.0, 0.0, 28);
  const auto slow = replay(&slow_plan);
  EXPECT_GT(slow.mean_duration_ms, healthy.mean_duration_ms);
  EXPECT_EQ(slow.loss_aborts, 0u);

  const auto lossy_plan = uniform_gray(inst, 1.0, 0.4, 28);
  const auto lossy = replay(&lossy_plan);
  EXPECT_GT(lossy.loss_aborts, 0u);
  // A lost fragment aborts its whole attempt; without faults nothing else
  // does. Siblings lost in the same step all count, so an attempt may
  // account for more than one loss.
  EXPECT_LE(lossy.retry_count, lossy.loss_aborts);
  std::size_t losses = 0;
  double lost_mb = 0.0;
  for (const auto& flow : lossy.flows) {
    EXPECT_GE(flow.completion_s, flow.arrival_s);
    EXPECT_EQ(flow.retries > 0, flow.losses > 0);
    EXPECT_LE(flow.retries, flow.losses);
    losses += flow.losses;
    lost_mb += static_cast<double>(flow.losses) *
               coded.delivery.placement_mb(flow.item);
  }
  EXPECT_EQ(losses, lossy.loss_aborts);
  EXPECT_NEAR(lossy.lost_mb, lost_mb, 1e-9 * lost_mb);
  expect_same_result(replay(&lossy_plan), lossy);
}

// Two fragments over disjoint routes of equal capacity drain in the same
// step. When both are lost, the attempt aborts once but both legs count:
// per-flow losses, loss_aborts and lost_mb all see two fragments burned.
TEST(GrayDes, SimultaneouslyLostFragmentsAreAllCounted) {
  const auto base = model::make_instance(small_params(), 29);
  // The same servers, users and requests on a path graph with equal link
  // weights: servers 0 and 2 reach server 1 over one-hop routes of the
  // same capacity.
  const std::size_t n = base.server_count();
  std::vector<net::Edge> edges;
  for (std::size_t i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1, 1e-3});
  const net::Graph graph(n, edges);
  const model::ProblemInstance inst(
      base.servers(), base.users(), base.data_items(), base.requests(), graph,
      net::DeliveryLatencyModel(net::CostMatrix(graph),
                                base.latency().cloud_speed_mbps()),
      base.radio_env());

  // One user served by server 1; one item with fragments on 0 and 2 only.
  std::size_t user = 0;
  while (inst.requests().items_of(user).empty()) ++user;
  const std::size_t item = inst.requests().items_of(user).front();
  core::AllocationProfile allocation(inst.user_count(), radio::kUnallocated);
  allocation[user] = radio::ChannelSlot{1, 0};
  core::DeliveryProfile fragments(inst, {2, 2});
  ASSERT_TRUE(fragments.can_place(0, item));
  ASSERT_TRUE(fragments.can_place(2, item));
  fragments.place(0, item);
  fragments.place(2, item);
  const core::Strategy coded(allocation, fragments);

  // Every leg is lost (up to a 1e-9 lottery chance per leg).
  const auto plan = uniform_gray(inst, 1.0, 1.0 - 1e-9, 29);
  des::FlowSimOptions options;
  options.degradation = &plan;
  options.health_aware = true;
  options.max_retries = 3;
  util::Rng rng(29);
  const auto result = des::FlowLevelSimulator(inst, options).run(coded, rng);

  const double fragment_mb = fragments.placement_mb(item);
  std::size_t routed = 0;
  for (const auto& flow : result.flows) {
    if (flow.user != user || flow.item != item) {
      EXPECT_EQ(flow.losses, 0u);
      continue;
    }
    ++routed;
    // Every edge attempt loses both fragments; past the retry cap the
    // request goes cloud-direct.
    EXPECT_EQ(flow.retries, options.max_retries + 1);
    EXPECT_EQ(flow.losses, 2 * flow.retries);
    EXPECT_TRUE(flow.forced_cloud);
  }
  ASSERT_EQ(routed, 1u);
  const std::size_t losses = 2 * (options.max_retries + 1);
  EXPECT_EQ(result.loss_aborts, losses);
  EXPECT_EQ(result.retry_count, options.max_retries + 1);
  EXPECT_DOUBLE_EQ(result.lost_mb, static_cast<double>(losses) * fragment_mb);

  util::Rng rng2(29);
  expect_same_result(
      des::FlowLevelSimulator(inst, options).run(coded, rng2), result);
}

// Health-aware routing also steers coded delivery: on a path graph the
// fragments of one item sit on servers 0 and 2 (one hop from the serving
// server 1) and 3 (two hops). Blind, every request fetches from 0 and 2;
// once server 0's 20x slowdown demotes it, later requests fetch from 2 and
// 3 instead (a two-hop replica-tier attempt) and finish sooner.
TEST(GrayDes, HealthAwareCodedDeliveryRoutesAroundADemotedFragmentHost) {
  const auto base = model::make_instance(small_params(), 30);
  const std::size_t n = base.server_count();
  std::vector<net::Edge> edges;
  for (std::size_t i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1, 1e-4});
  const net::Graph graph(n, edges);
  const model::ProblemInstance inst(
      base.servers(), base.users(), base.data_items(), base.requests(), graph,
      net::DeliveryLatencyModel(net::CostMatrix(graph),
                                base.latency().cloud_speed_mbps()),
      base.radio_env());

  // The most requested item, with every one of its requesters served by
  // server 1; everyone else is cloud-only.
  std::vector<std::size_t> demand(inst.data_count(), 0);
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    for (const std::size_t k : inst.requests().items_of(j)) ++demand[k];
  }
  const auto item = static_cast<std::size_t>(
      std::max_element(demand.begin(), demand.end()) - demand.begin());
  ASSERT_GE(demand[item], 4u);
  core::AllocationProfile allocation(inst.user_count(), radio::kUnallocated);
  for (std::size_t j = 0; j < inst.user_count(); ++j) {
    const auto items = inst.requests().items_of(j);
    if (std::find(items.begin(), items.end(), item) != items.end()) {
      allocation[j] = radio::ChannelSlot{1, 0};
    }
  }
  core::DeliveryProfile fragments(inst, {3, 2});
  for (const std::size_t host : {0u, 2u, 3u}) {
    ASSERT_TRUE(fragments.can_place(host, item));
    fragments.place(host, item);
  }
  const core::Strategy coded(allocation, fragments);

  fault::DegradationPlan plan;
  plan.add_server_segment(0, {0.0, 300.0, 20.0, 0.0});
  des::FlowSimOptions options;
  options.arrival_window_s = 30.0;
  options.degradation = &plan;
  const auto replay = [&](bool health_aware) {
    des::FlowSimOptions with = options;
    with.health_aware = health_aware;
    util::Rng rng(30);
    return des::FlowLevelSimulator(inst, with).run(coded, rng);
  };
  const auto blind = replay(false);
  const auto aware = replay(true);

  std::size_t rerouted = 0;
  for (const auto* result : {&blind, &aware}) {
    for (const auto& flow : result->flows) {
      if (flow.item != item) continue;
      EXPECT_FALSE(flow.from_cloud);
      if (result == &blind) {
        EXPECT_EQ(flow.hops, 1u);
        EXPECT_EQ(flow.tier, core::FallbackTier::kPrimary);
      } else if (flow.hops == 2) {
        EXPECT_EQ(flow.tier, core::FallbackTier::kReplica);
        ++rerouted;
      }
    }
  }
  EXPECT_GE(rerouted, demand[item] / 2);
  EXPECT_LT(aware.mean_duration_ms, blind.mean_duration_ms);
  expect_same_result(replay(true), aware);
}

// --- serve controller ----------------------------------------------------

serve::ServeConfig gray_serve_config() {
  serve::ServeConfig config;
  config.base = sim::paper_default_params();
  config.base.server_count = 10;
  config.base.user_count = 40;
  config.base.data_count = 3;
  config.tick_seconds = 1.0;
  config.churn.arrival_rate_hz = 1.0 / 20.0;
  config.churn.mean_session_s = 40.0;
  config.churn.initial_online_fraction = 0.9;
  // Gray pressure: most servers degrade early and hold the peak, so the
  // health tracker has unambiguous evidence within a few ticks.
  config.degradation.gray_fraction = 0.9;
  config.degradation.horizon_s = 200.0;
  config.degradation.peak_multiplier_min = 6.0;
  config.degradation.peak_multiplier_max = 6.0;
  config.degradation.onset_latest_s = 2.0;
  config.degradation.ramp_weight = 0.0;
  config.degradation.flap_weight = 0.0;
  config.degradation.plateau_s = 180.0;
  config.health.min_samples = 2;
  return config;
}

TEST(ServeGray, GrayEventsDemoteServersAndStayDeterministic) {
  serve::ServeController a(gray_serve_config(), 7);
  serve::ServeController b(gray_serve_config(), 7);
  std::size_t peak_demoted = 0;
  for (int step = 0; step < 30; ++step) {
    (void)a.tick();
    (void)b.tick();
    ASSERT_EQ(a.trajectory_hash(), b.trajectory_hash()) << "tick " << step;
    peak_demoted = std::max(peak_demoted, a.gray_demoted_count());
  }
  // The plateau plan must have tripped the health latch on someone.
  EXPECT_GT(peak_demoted, 0u);
  EXPECT_GT(a.status().events_total, 0u);
}

TEST(ServeGray, CheckpointResumeIsBitIdenticalUnderActiveGray) {
  for (std::uint64_t seed = 40; seed <= 42; ++seed) {
    constexpr std::size_t kCut = 12;
    constexpr std::size_t kTotal = 24;
    serve::ServeController uninterrupted(gray_serve_config(), seed);
    for (std::size_t step = 0; step < kTotal; ++step) {
      (void)uninterrupted.tick();
    }

    serve::ServeController victim(gray_serve_config(), seed);
    for (std::size_t step = 0; step < kCut; ++step) (void)victim.tick();
    const std::string snapshot = victim.checkpoint();

    serve::ServeController survivor(gray_serve_config(), seed);
    survivor.restore(snapshot);
    EXPECT_EQ(survivor.checkpoint(), snapshot);
    EXPECT_EQ(survivor.gray_demoted_count(), victim.gray_demoted_count());
    for (std::size_t step = kCut; step < kTotal; ++step) {
      (void)survivor.tick();
    }
    EXPECT_EQ(survivor.trajectory_hash(), uninterrupted.trajectory_hash())
        << "seed " << seed;
  }
}

TEST(ServeGray, RestoreRejectsSnapshotsFromADifferentHealthConfig) {
  serve::ServeController a(gray_serve_config(), 3);
  for (int step = 0; step < 5; ++step) (void)a.tick();
  const std::string snapshot = a.checkpoint();

  serve::ServeConfig other = gray_serve_config();
  other.health.demote_score = 0.5;  // guard-hashed: not the same world
  serve::ServeController b(other, 3);
  EXPECT_THROW(b.restore(snapshot), util::JsonError);

  serve::ServeConfig other_gray = gray_serve_config();
  other_gray.degradation.peak_multiplier_max = 7.0;
  serve::ServeController c(other_gray, 3);
  EXPECT_THROW(c.restore(snapshot), util::JsonError);
}

}  // namespace
