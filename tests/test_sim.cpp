// Simulation harness: runner, sweeps, report tables/CSV, paper sets.
#include <gtest/gtest.h>

#include <sstream>

#include "core/idde_g.hpp"
#include "fault/fault_plan.hpp"
#include "sim/overload.hpp"
#include "sim/paper.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "util/format.hpp"

namespace {

using namespace idde;

model::InstanceParams small_params() {
  model::InstanceParams p;
  p.server_count = 8;
  p.user_count = 30;
  p.data_count = 3;
  return p;
}

TEST(Runner, RecordsMetricsAndTime) {
  const auto inst = model::make_instance(small_params(), 1);
  core::IddeG approach;
  util::Rng rng(1);
  const sim::RunRecord record =
      sim::run_approach(inst, approach, rng, /*require_valid=*/true);
  EXPECT_EQ(record.approach, "IDDE-G");
  EXPECT_GT(record.metrics.avg_rate_mbps, 0.0);
  EXPECT_GT(record.metrics.avg_latency_ms, 0.0);
  EXPECT_GE(record.solve_ms, 0.0);
  EXPECT_TRUE(record.strategy_valid);
  EXPECT_GT(record.game_moves, 0u);
}

TEST(Sweep, ShapesAndDeterminism) {
  std::vector<sim::SweepPoint> points;
  for (const std::size_t n : {6u, 8u}) {
    model::InstanceParams p = small_params();
    p.server_count = n;
    points.push_back({util::format("N={}", n), p});
  }
  std::vector<core::ApproachPtr> approaches;
  approaches.push_back(std::make_unique<core::IddeG>());

  sim::SweepOptions options;
  options.repetitions = 3;
  options.base_seed = 7;
  options.threads = 2;
  const auto a = sim::run_sweep(points, approaches, options);
  const auto b = sim::run_sweep(points, approaches, options);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(a[0].cells.size(), 1u);
  EXPECT_EQ(a[0].label, "N=6");
  EXPECT_EQ(a[0].cells[0].rate_mbps.n, 3u);
  // Metrics are deterministic given (point, rep) seeds; solve_ms is not.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].cells[0].rate_mbps.mean,
                     b[i].cells[0].rate_mbps.mean);
    EXPECT_DOUBLE_EQ(a[i].cells[0].latency_ms.mean,
                     b[i].cells[0].latency_ms.mean);
  }
}

TEST(Sweep, FaultProfilePopulatesResilienceEstimates) {
  std::vector<sim::SweepPoint> points{{"p0", small_params()}};
  std::vector<core::ApproachPtr> approaches;
  approaches.push_back(std::make_unique<core::IddeG>());

  sim::SweepOptions options;
  options.repetitions = 2;
  options.base_seed = 11;
  // Without a profile the resilience estimates stay empty (n == 0).
  const auto plain = sim::run_sweep(points, approaches, options);
  EXPECT_EQ(plain[0].cells[0].degraded_latency_ms.n, 0u);
  EXPECT_EQ(plain[0].cells[0].availability.n, 0u);

  fault::FaultProfile profile;
  profile.horizon_s = 30.0;
  profile.server_mtbf_s = 10.0;
  profile.server_mttr_s = 5.0;
  options.fault_profile = &profile;
  options.repair_policy = fault::RepairPolicy::kGreedy;
  const auto faulty = sim::run_sweep(points, approaches, options);
  const auto& cell = faulty[0].cells[0];
  EXPECT_EQ(cell.degraded_latency_ms.n, 2u);
  EXPECT_EQ(cell.availability.n, 2u);
  EXPECT_GE(cell.degraded_latency_ms.mean, cell.latency_ms.mean - 1e-9);
  EXPECT_GT(cell.availability.mean, 0.0);
  EXPECT_LE(cell.availability.mean, 1.0);
  // Fault evaluation must not perturb the fault-free metrics.
  EXPECT_DOUBLE_EQ(cell.rate_mbps.mean, plain[0].cells[0].rate_mbps.mean);
  EXPECT_DOUBLE_EQ(cell.latency_ms.mean, plain[0].cells[0].latency_ms.mean);
}

// Every config the repo ships passes the checkers: the paper's defaults
// and Table-2 points, perfbench's city and metro scenarios, the overload
// and chaos QoS configs over ext_overload's load x policy x retry grid
// (chaos also with the soak's flash-crowd arrivals), and the chaos fault
// profile.
TEST(Scenario, ShippedConfigsPassTheCheckers) {
  std::vector<model::InstanceParams> params = {sim::paper_default_params()};
  for (const sim::PaperSet& set : sim::paper_sets()) {
    for (const sim::SweepPoint& point : set.points) {
      params.push_back(point.params);
    }
  }
  model::InstanceParams city = sim::paper_default_params();
  city.server_count = 125;
  city.user_count = 816;
  city.data_count = 12;
  params.push_back(city);
  for (const char* metro :
       {R"({"server_count":500,"user_count":8000,)"
        R"("eua":{"area_side_m":4000,"server_count":500,"user_count":8000}})",
        R"({"server_count":60,"user_count":960,)"
        R"("eua":{"area_side_m":1386,"server_count":60,"user_count":960}})"}) {
    params.push_back(sim::params_from_string(metro));
  }
  for (const model::InstanceParams& p : params) {
    EXPECT_NO_THROW(model::InstanceBuilder{p});
  }

  for (const double load : {1.0, 2.0, 3.0, 4.0, 6.0, 10.0}) {
    for (const auto policy :
         {qos::SheddingPolicy::kNone, qos::SheddingPolicy::kRejectNewest,
          qos::SheddingPolicy::kDeadlineAware}) {
      for (const double ratio : {-1.0, 0.0, 0.1}) {
        EXPECT_NO_THROW(
            qos::check_qos(sim::overload_qos_config(load, policy, ratio)));
        qos::QosConfig chaos = sim::chaos_qos_config(load, policy, ratio);
        EXPECT_NO_THROW(qos::check_qos(chaos));
        chaos.arrivals.process = qos::ArrivalProcess::kFlashCrowd;
        EXPECT_NO_THROW(qos::check_qos(chaos));
      }
    }
  }
  EXPECT_NO_THROW(util::check_config(sim::chaos_fault_profile()));
}

TEST(Sweep, ProgressCallbackFiresPerPoint) {
  std::vector<sim::SweepPoint> points{{"p0", small_params()},
                                      {"p1", small_params()}};
  std::vector<core::ApproachPtr> approaches;
  approaches.push_back(std::make_unique<core::IddeG>());
  sim::SweepOptions options;
  options.repetitions = 1;
  int fired = 0;
  options.on_point = [&fired](const sim::PointResult&) { ++fired; };
  (void)sim::run_sweep(points, approaches, options);
  EXPECT_EQ(fired, 2);
}

TEST(Report, SeriesTableLayout) {
  sim::PointResult p0{"N=20",
                      {{"A", {100, 1, 3}, {10, 1, 3}, {1, 0, 3}},
                       {"B", {90, 1, 3}, {20, 1, 3}, {2, 0, 3}}}};
  sim::PointResult p1{"N=25",
                      {{"A", {110, 1, 3}, {9, 1, 3}, {1, 0, 3}},
                       {"B", {95, 1, 3}, {18, 1, 3}, {2, 0, 3}}}};
  const std::vector<sim::PointResult> results{p0, p1};
  const auto table = sim::series_table(results, sim::Metric::kRate, "N");
  const std::string text = table.to_string();
  EXPECT_NE(text.find("N=20"), std::string::npos);
  EXPECT_NE(text.find("100.00"), std::string::npos);
  EXPECT_NE(text.find("| A"), std::string::npos);
  const auto lat = sim::series_table(results, sim::Metric::kLatency, "N");
  EXPECT_NE(lat.to_string().find("18.00"), std::string::npos);
}

TEST(Report, CsvLongFormat) {
  sim::PointResult p0{"x",
                      {{"A", {1, 0.5, 3}, {2, 0.5, 3}, {3, 0.5, 3}}}};
  std::ostringstream out;
  sim::write_csv(out, {p0}, "param");
  const std::string text = out.str();
  EXPECT_NE(text.find("param,approach,metric,mean,ci95,n"),
            std::string::npos);
  EXPECT_NE(text.find("x,A,rate_mbps,1,0.5,3"), std::string::npos);
  EXPECT_NE(text.find("x,A,latency_ms,2,0.5,3"), std::string::npos);
  EXPECT_NE(text.find("x,A,solve_ms,3,0.5,3"), std::string::npos);
}

TEST(Report, AdvantagesComputeRelativeGains)
{
  sim::PointResult p0{"x",
                      {{"ours", {120, 0, 3}, {5, 0, 3}, {1, 0, 3}},
                       {"other", {100, 0, 3}, {20, 0, 3}, {1, 0, 3}}}};
  const auto advantages = sim::advantages_of({p0}, "ours");
  ASSERT_EQ(advantages.size(), 1u);
  EXPECT_EQ(advantages[0].versus, "other");
  EXPECT_NEAR(advantages[0].rate_gain_pct, 20.0, 1e-9);
  EXPECT_NEAR(advantages[0].latency_reduction_pct, 75.0, 1e-9);
}

TEST(PaperSets, MatchTable2) {
  const auto set1 = sim::paper_set1();
  ASSERT_EQ(set1.size(), 7u);
  EXPECT_EQ(set1.front().label, "N=20");
  EXPECT_EQ(set1.back().label, "N=50");
  EXPECT_EQ(set1.front().params.user_count, 200u);
  EXPECT_EQ(set1.front().params.data_count, 5u);

  const auto set2 = sim::paper_set2();
  ASSERT_EQ(set2.size(), 7u);
  EXPECT_EQ(set2.front().params.user_count, 50u);
  EXPECT_EQ(set2.back().params.user_count, 350u);
  EXPECT_EQ(set2.front().params.server_count, 30u);

  const auto set3 = sim::paper_set3();
  ASSERT_EQ(set3.size(), 7u);
  EXPECT_EQ(set3.front().params.data_count, 2u);
  EXPECT_EQ(set3.back().params.data_count, 8u);

  const auto set4 = sim::paper_set4();
  ASSERT_EQ(set4.size(), 6u);
  EXPECT_DOUBLE_EQ(set4.front().params.density, 1.0);
  EXPECT_DOUBLE_EQ(set4.back().params.density, 3.0);

  EXPECT_EQ(sim::paper_sets().size(), 4u);
}

TEST(PaperSets, Table2TextContainsGrid) {
  const std::string text = sim::table2_text();
  EXPECT_NE(text.find("Set #1"), std::string::npos);
  EXPECT_NE(text.find("20,...,50"), std::string::npos);
  EXPECT_NE(text.find("1.0,...,3.0"), std::string::npos);
}

TEST(PaperSets, DefaultsFollowSection42) {
  const auto p = sim::paper_default_params();
  EXPECT_EQ(p.server_count, 30u);
  EXPECT_EQ(p.user_count, 200u);
  EXPECT_EQ(p.data_count, 5u);
  EXPECT_DOUBLE_EQ(p.density, 1.0);
  EXPECT_EQ(p.channels_per_server, 3u);
  EXPECT_DOUBLE_EQ(p.channel_bandwidth_mbps, 200.0);
  EXPECT_DOUBLE_EQ(p.noise_dbm, -174.0);
  EXPECT_DOUBLE_EQ(p.cloud_speed_mbps, 600.0);
  EXPECT_DOUBLE_EQ(p.min_link_speed_mbps, 2000.0);
  EXPECT_DOUBLE_EQ(p.max_link_speed_mbps, 6000.0);
  EXPECT_EQ(p.eua.server_count, 125u);
  EXPECT_EQ(p.eua.user_count, 816u);
}

}  // namespace
