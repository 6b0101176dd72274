// Gray determinism contract (mirrors test_fault_determinism.cpp): with an
// active DegradationPlan and health-aware delivery, the full pipeline —
// solve, draw the plan, replay through the DES — must be bit-identical
// across solver thread counts and across the batched SoA engine toggle.
// The gray layer (plan generation, loss lottery, health scores) is
// single-threaded and seed-pure on top of an engine that already
// guarantees an identical equilibrium. Runs under TSan in CI next to the
// fault determinism suite.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/idde_g.hpp"
#include "des/flow_sim.hpp"
#include "fault/degradation.hpp"
#include "model/instance_builder.hpp"
#include "sim/paper.hpp"

namespace {

using namespace idde;

model::InstanceParams small_params() {
  model::InstanceParams p = sim::paper_default_params();
  p.server_count = 10;
  p.user_count = 50;
  p.data_count = 4;
  return p;
}

fault::DegradationProfile lively_profile() {
  fault::DegradationProfile profile;
  profile.horizon_s = 60.0;
  profile.gray_fraction = 0.6;
  profile.peak_multiplier_min = 3.0;
  profile.peak_multiplier_max = 8.0;
  profile.loss_prob_max = 0.1;
  profile.onset_latest_s = 5.0;
  return profile;
}

core::Strategy solve_variant(const model::ProblemInstance& inst,
                             std::size_t threads, bool batched,
                             std::uint64_t seed) {
  core::IddeGOptions options;
  options.game.threads = threads;
  options.game.batched = batched;
  util::Rng rng(seed);
  return core::IddeG(options).solve(inst, rng);
}

void expect_same_result(const des::FlowSimResult& a,
                        const des::FlowSimResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t f = 0; f < a.flows.size(); ++f) {
    EXPECT_EQ(a.flows[f].arrival_s, b.flows[f].arrival_s) << f;
    EXPECT_EQ(a.flows[f].completion_s, b.flows[f].completion_s) << f;
    EXPECT_EQ(a.flows[f].retries, b.flows[f].retries) << f;
    EXPECT_EQ(a.flows[f].tier, b.flows[f].tier) << f;
    EXPECT_EQ(a.flows[f].losses, b.flows[f].losses) << f;
  }
  EXPECT_EQ(a.mean_duration_ms, b.mean_duration_ms);
  EXPECT_EQ(a.p99_duration_ms, b.p99_duration_ms);
  EXPECT_EQ(a.max_duration_ms, b.max_duration_ms);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.retry_count, b.retry_count);
  EXPECT_EQ(a.tier_counts, b.tier_counts);
  EXPECT_EQ(a.rate_recomputations, b.rate_recomputations);
  EXPECT_EQ(a.loss_aborts, b.loss_aborts);
  EXPECT_EQ(a.lost_mb, b.lost_mb);
}

TEST(GrayDeterminism, PlanIsBitIdenticalForSameSeed) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = model::make_instance(small_params(), seed);
    const auto a =
        fault::DegradationPlan::generate(inst, lively_profile(), seed * 883);
    const auto b =
        fault::DegradationPlan::generate(inst, lively_profile(), seed * 883);
    EXPECT_EQ(a, b);
    const auto c = fault::DegradationPlan::generate(inst, lively_profile(),
                                                    seed * 883 + 1);
    EXPECT_NE(a, c);
  }
}

// The health-aware replay under an active gray plan must not depend on how
// the equilibrium was computed: 1 solver thread vs hardware threads, scalar
// vs batched slot evaluation — four variants, one result.
TEST(GrayDeterminism, HealthAwarePipelineIdenticalAcrossSolverVariants) {
  for (std::uint64_t seed = 50; seed <= 52; ++seed) {
    const auto inst = model::make_instance(small_params(), seed);
    const auto plan =
        fault::DegradationPlan::generate(inst, lively_profile(), seed ^ 0x6a);
    ASSERT_FALSE(plan.inert());

    des::FlowSimOptions options;
    options.arrival_window_s = 15.0;
    options.degradation = &plan;
    options.health_aware = true;

    const auto replay = [&](const core::Strategy& strategy) {
      util::Rng rng(seed);
      return des::FlowLevelSimulator(inst, options).run(strategy, rng);
    };

    const auto reference = replay(solve_variant(inst, 1, false, seed));
    expect_same_result(replay(solve_variant(inst, 0, false, seed)),
                       reference);
    expect_same_result(replay(solve_variant(inst, 1, true, seed)),
                       reference);
    expect_same_result(replay(solve_variant(inst, 0, true, seed)),
                       reference);
  }
}

}  // namespace
