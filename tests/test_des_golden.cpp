// Golden digests of the flow-level DES. Each case replays a few small
// seeded scenarios and folds every FlowRecord field and every FlowSimResult
// aggregate (rate_recomputations included) into one FNV-1a digest per seed.
// The pinned values are exact: any change to event order, rng draws, tie
// breaks or float arithmetic in the replay shows up here, so refactors of
// the engine must reproduce them bit for bit. The gray cases also fold the
// lost-byte total, which is zero everywhere else.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <ios>
#include <sstream>
#include <string>

#include "coding/coded_planner.hpp"
#include "coding/coded_profile.hpp"
#include "core/idde_g.hpp"
#include "des/flow_sim.hpp"
#include "fault/degradation.hpp"
#include "fault/fault_plan.hpp"
#include "model/instance_builder.hpp"
#include "qos/config.hpp"
#include "sim/overload.hpp"
#include "sim/paper.hpp"

namespace {

using namespace idde;

constexpr std::array<std::uint64_t, 3> kSeeds{1, 2, 3};

class Fnv {
 public:
  void mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix(double value) { mix(std::bit_cast<std::uint64_t>(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const des::FlowSimResult& result) {
  Fnv fnv;
  fnv.mix(std::uint64_t{result.flows.size()});
  for (const des::FlowRecord& flow : result.flows) {
    fnv.mix(std::uint64_t{flow.user});
    fnv.mix(std::uint64_t{flow.item});
    fnv.mix(flow.arrival_s);
    fnv.mix(flow.completion_s);
    fnv.mix(std::uint64_t{flow.from_cloud});
    fnv.mix(std::uint64_t{flow.local_hit});
    fnv.mix(std::uint64_t{flow.hops});
    fnv.mix(std::uint64_t{flow.retries});
    fnv.mix(std::uint64_t{flow.forced_cloud});
    fnv.mix(static_cast<std::uint64_t>(flow.tier));
    fnv.mix(static_cast<std::uint64_t>(flow.outcome));
    fnv.mix(flow.queue_wait_s);
    fnv.mix(std::uint64_t{flow.deadline_missed});
    fnv.mix(std::uint64_t{flow.losses});
  }
  fnv.mix(result.mean_duration_ms);
  fnv.mix(result.p95_duration_ms);
  fnv.mix(result.p99_duration_ms);
  fnv.mix(result.max_duration_ms);
  fnv.mix(result.makespan_s);
  fnv.mix(std::uint64_t{result.local_hits});
  fnv.mix(std::uint64_t{result.cloud_fetches});
  fnv.mix(std::uint64_t{result.rate_recomputations});
  fnv.mix(result.availability);
  fnv.mix(std::uint64_t{result.retry_count});
  fnv.mix(std::uint64_t{result.forced_cloud_fetches});
  for (const std::size_t count : result.tier_counts) {
    fnv.mix(std::uint64_t{count});
  }
  const des::QosStats& qos = result.qos;
  fnv.mix(std::uint64_t{qos.offered});
  fnv.mix(std::uint64_t{qos.admitted});
  fnv.mix(std::uint64_t{qos.shed});
  fnv.mix(std::uint64_t{qos.rejected});
  fnv.mix(std::uint64_t{qos.deadline_misses});
  fnv.mix(std::uint64_t{qos.goodput_flows});
  fnv.mix(qos.goodput_rps);
  fnv.mix(qos.offered_rps);
  fnv.mix(std::uint64_t{qos.retries_denied});
  fnv.mix(std::uint64_t{qos.breaker_opens});
  fnv.mix(qos.mean_queue_wait_ms);
  for (const double ms : qos.tier_p50_ms) fnv.mix(ms);
  for (const double ms : qos.tier_p99_ms) fnv.mix(ms);
  fnv.mix(std::uint64_t{result.loss_aborts});
  return fnv.value();
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

struct Scenario {
  model::ProblemInstance instance;
  core::Strategy strategy;
};

Scenario scenario(std::uint64_t seed) {
  model::InstanceParams params = sim::paper_default_params();
  params.server_count = 15;
  params.user_count = 90;
  params.data_count = 6;
  model::ProblemInstance instance = model::make_instance(params, seed);
  util::Rng rng(seed);
  core::Strategy strategy = core::IddeG().solve(instance, rng);
  return Scenario{std::move(instance), std::move(strategy)};
}

fault::FaultProfile busy_faults(double corruption) {
  fault::FaultProfile profile;
  profile.horizon_s = 45.0;
  profile.server_mtbf_s = 15.0;
  profile.server_mttr_s = 5.0;
  profile.link_mtbf_s = 12.0;
  profile.link_mttr_s = 4.0;
  profile.cloud_mtbf_s = 30.0;
  profile.cloud_mttr_s = 3.0;
  profile.replica_corruption_prob = corruption;
  return profile;
}

/// Links at 1% of their capacity: flows are long enough to contend and to
/// be cut by fault epochs.
des::FlowSimOptions slow_links() {
  des::FlowSimOptions options;
  options.link_capacity_scale = 0.01;
  return options;
}

coding::CodedStrategy coded_k2(const Scenario& s) {
  coding::CodedGreedyPlanner planner(s.instance);
  auto planned =
      planner.plan(s.strategy.allocation, {s.instance.server_count(), 2});
  coding::CodedStrategy coded(s.strategy.allocation,
                              coding::CodedDeliveryProfile(planned.delivery));
  coded.collaborative_delivery = s.strategy.collaborative_delivery;
  return coded;
}

/// Replays `replay(seed)` for every seed and compares against `pinned`.
void expect_digests(
    const std::array<std::uint64_t, 3>& pinned,
    const std::function<des::FlowSimResult(std::uint64_t)>& replay,
    bool with_lost_mb = false) {
  for (std::size_t i = 0; i < kSeeds.size(); ++i) {
    const des::FlowSimResult result = replay(kSeeds[i]);
    ASSERT_EQ(result.qos.offered, result.flows.size());
    std::uint64_t value = digest(result);
    if (with_lost_mb) {
      Fnv fnv;
      fnv.mix(value);
      fnv.mix(result.lost_mb);
      value = fnv.value();
    }
    EXPECT_EQ(hex(value), hex(pinned[i])) << "seed " << kSeeds[i];
  }
}

/// Gray replay: a third of the servers slow down 3-8x early in the run
/// and drop some legs, under blind or health-aware routing.
des::FlowSimResult gray_replay(std::uint64_t seed, bool health_aware) {
  const Scenario s = scenario(seed);
  fault::DegradationProfile profile;
  profile.horizon_s = 60.0;
  profile.gray_fraction = 0.35;
  profile.peak_multiplier_min = 3.0;
  profile.peak_multiplier_max = 8.0;
  profile.loss_prob_max = 0.1;
  profile.onset_latest_s = 2.0;
  const auto plan =
      fault::DegradationPlan::generate(s.instance, profile, seed ^ 0x96a1);
  des::FlowSimOptions options;
  options.arrival_window_s = 10.0;
  options.degradation = &plan;
  options.health_aware = health_aware;
  util::Rng rng(seed);
  return des::FlowLevelSimulator(s.instance, options).run(s.strategy, rng);
}

TEST(DesGolden, FaultFreeBurst) {
  expect_digests({0x43a0ee06d7dee9bULL, 0x23bd508029d5179fULL,
                  0x74150b7cfffedfc2ULL}, [](std::uint64_t seed) {
    const Scenario s = scenario(seed);
    des::FlowSimOptions options = slow_links();
    util::Rng rng(seed);
    return des::FlowLevelSimulator(s.instance, options).run(s.strategy, rng);
  });
}

TEST(DesGolden, FaultFreeSpread) {
  expect_digests({0x5ff7bc22b79f73f8ULL, 0xd4e86a7c4cb6c52cULL,
                  0xe387d0815e8b579ULL}, [](std::uint64_t seed) {
    const Scenario s = scenario(seed);
    des::FlowSimOptions options = slow_links();
    options.arrival_window_s = 15.0;
    util::Rng rng(seed);
    return des::FlowLevelSimulator(s.instance, options).run(s.strategy, rng);
  });
}

TEST(DesGolden, FaultsWithCorruption) {
  expect_digests({0x42e0d8ad07f33602ULL, 0x4a3e79a95326a712ULL,
                  0x91f235cbf0cb7262ULL}, [](std::uint64_t seed) {
    const Scenario s = scenario(seed);
    const auto plan =
        fault::FaultPlan::generate(s.instance, busy_faults(0.1), seed ^ 0x4a17);
    des::FlowSimOptions options = slow_links();
    options.arrival_window_s = 15.0;
    options.fault_plan = &plan;
    options.max_retries = 2;  // also exercise the forced-cloud cap
    util::Rng rng(seed);
    return des::FlowLevelSimulator(s.instance, options).run(s.strategy, rng);
  });
}

TEST(DesGolden, QosChaosWithSlotsAndLocalService) {
  expect_digests({0x4de14070dbd06472ULL, 0x1b9ff38a4f793e03ULL,
                  0xc12ed53cfe6e6bd7ULL}, [](std::uint64_t seed) {
    const Scenario s = scenario(seed);
    const qos::QosConfig qos =
        sim::chaos_qos_config(4.0, qos::SheddingPolicy::kDeadlineAware, 0.1);
    EXPECT_GT(qos.admission.service_slots, 0u);
    EXPECT_GT(qos.admission.local_service_s_per_mb, 0.0);
    const auto plan = fault::FaultPlan::generate(
        s.instance, sim::chaos_fault_profile(), seed ^ 0x4a17);
    des::FlowSimOptions options = slow_links();
    options.fault_plan = &plan;
    options.qos = &qos;
    util::Rng rng(seed ^ 0x10adULL);
    return des::FlowLevelSimulator(s.instance, options).run(s.strategy, rng);
  });
}

TEST(DesGolden, QosOpenLoopWithFaults) {
  expect_digests({0x54fa530f62a53b7aULL, 0x7dc44484b44ac788ULL,
                  0x26f4137bf1db7b6ULL}, [](std::uint64_t seed) {
    const Scenario s = scenario(seed);
    qos::QosConfig qos;
    qos.arrivals.process = qos::ArrivalProcess::kFlashCrowd;
    qos.arrivals.load_multiplier = 3.0;
    qos.arrivals.window_s = 10.0;
    qos.admission.policy = qos::SheddingPolicy::kDeadlineAware;
    qos.admission.deadline_s = 1.5;
    qos.retry_budget.ratio = 0.2;
    qos.retry_budget.burst = 4.0;
    qos.breaker.enabled = true;
    qos.breaker.min_samples = 4;
    qos.breaker.open_duration_s = 1.0;
    const auto plan =
        fault::FaultPlan::generate(s.instance, busy_faults(0.1), seed ^ 0x4a17);
    des::FlowSimOptions options = slow_links();
    options.fault_plan = &plan;
    options.qos = &qos;
    options.max_retries = 3;
    util::Rng rng(seed ^ 0x10adULL);
    return des::FlowLevelSimulator(s.instance, options).run(s.strategy, rng);
  });
}

TEST(DesGolden, CodedK2WithFaults) {
  expect_digests({0x77fcc840ceb0b20fULL, 0x2bc36fdff1d1eed4ULL,
                  0x9472f609f937f5f5ULL}, [](std::uint64_t seed) {
    const Scenario s = scenario(seed);
    const coding::CodedStrategy coded = coded_k2(s);
    const auto plan =
        fault::FaultPlan::generate(s.instance, busy_faults(0.1), seed ^ 0x4a17);
    des::FlowSimOptions options = slow_links();
    options.arrival_window_s = 15.0;
    options.fault_plan = &plan;
    options.max_retries = 3;
    util::Rng rng(seed);
    return des::FlowLevelSimulator(s.instance, options).run_coded(coded, rng);
  });
}

TEST(DesGolden, CodedK2WithQos) {
  expect_digests({0xef71794f50e3b215ULL, 0xd3a8c1b6453ec1a8ULL,
                  0x1e29f45b5d1cc960ULL}, [](std::uint64_t seed) {
    const Scenario s = scenario(seed);
    const coding::CodedStrategy coded = coded_k2(s);
    qos::QosConfig qos =
        sim::chaos_qos_config(4.0, qos::SheddingPolicy::kDeadlineAware, 0.1);
    qos.admission.service_slots = 0;  // slots have no coded meaning
    const auto plan =
        fault::FaultPlan::generate(s.instance, busy_faults(0.0), seed ^ 0x4a17);
    des::FlowSimOptions options = slow_links();
    options.fault_plan = &plan;
    options.qos = &qos;
    util::Rng rng(seed ^ 0x10adULL);
    return des::FlowLevelSimulator(s.instance, options).run_coded(coded, rng);
  });
}

TEST(DesGolden, GrayBinary) {
  expect_digests(
      {0xd8feacadfead99e1ULL, 0xe60c9b80ec93ab5eULL, 0x738d24cec77c2d20ULL},
      [](std::uint64_t seed) { return gray_replay(seed, false); }, true);
}

TEST(DesGolden, GrayHealthAware) {
  expect_digests(
      {0x63101cc7fdbe089eULL, 0x48d5c070d2633192ULL, 0x5fd2ae8d70374752ULL},
      [](std::uint64_t seed) { return gray_replay(seed, true); }, true);
}

}  // namespace
