// ext_coding — what does erasure-coded placement buy over 0/1 replication?
//
// Traces the (n, k) x storage-budget frontier at the Section 4.2 default
// size: per (budget, repetition) solve IDDE-G fault-free, then re-plan the
// delivery plane with the coded greedy at each fragment config and score
// replication vs coded three ways — analytic fault-free L_avg, analytic
// time-weighted degraded L_avg under the shared severity grid
// (bench/figure_common.hpp, with and without greedy repair), and a
// flow-level DES replay through the same fault plan (parallel fragment
// legs, retries, backoff).
//
// Two gates run in-binary (CI runs --smoke and fails on exit != 0):
//  1. k = 1 is bit-identical to replication: the (N, 1) plan commits the
//     replication plan's placements and headroom with the same L_avg, and
//     scores the same ResilienceReport field-for-field and the same DES
//     replay floats as the strategy's own sigma.
//  2. The coded frontier dominates replication somewhere: at >= 1
//     (budget, severity) point some k > 1 config reaches a strictly lower
//     degraded L_avg (no repair) than replication at equal storage.
//
// Emits BENCH_coding.json for cross-PR tracking.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "figure_common.hpp"
#include "core/greedy_delivery.hpp"
#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "des/flow_sim.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "model/instance_builder.hpp"
#include "obs/obs.hpp"
#include "sim/paper.hpp"
#include "sim/runner.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace idde;

/// Equality of the aggregate DES result — every float and counter the
/// replay reports, plus each flow's completion time. Bitwise: the k = 1
/// contract is "same events, same floats", not "close".
bool same_des_result(const des::FlowSimResult& a, const des::FlowSimResult& b) {
  if (a.flows.size() != b.flows.size()) return false;
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    if (a.flows[i].arrival_s != b.flows[i].arrival_s ||
        a.flows[i].completion_s != b.flows[i].completion_s ||
        a.flows[i].retries != b.flows[i].retries ||
        a.flows[i].from_cloud != b.flows[i].from_cloud ||
        a.flows[i].local_hit != b.flows[i].local_hit ||
        a.flows[i].tier != b.flows[i].tier) {
      return false;
    }
  }
  return a.mean_duration_ms == b.mean_duration_ms &&
         a.p95_duration_ms == b.p95_duration_ms &&
         a.p99_duration_ms == b.p99_duration_ms &&
         a.max_duration_ms == b.max_duration_ms &&
         a.makespan_s == b.makespan_s && a.local_hits == b.local_hits &&
         a.cloud_fetches == b.cloud_fetches &&
         a.availability == b.availability && a.retry_count == b.retry_count &&
         a.forced_cloud_fetches == b.forced_cloud_fetches &&
         a.tier_counts == b.tier_counts;
}

bool same_report(const fault::ResilienceReport& a,
                 const fault::ResilienceReport& b) {
  return a.fault_free_latency_ms == b.fault_free_latency_ms &&
         a.degraded_latency_ms == b.degraded_latency_ms &&
         a.availability == b.availability &&
         a.tier_fraction == b.tier_fraction && a.epochs == b.epochs &&
         a.lost_placements == b.lost_placements &&
         a.repair_placements == b.repair_placements;
}

/// k = 1 placement identity: the coded profile holds exactly the
/// replication planner's placements and the same integer-KB headroom.
bool same_placements(const core::DeliveryProfile& coded,
                     const core::DeliveryProfile& replication) {
  for (std::size_t k = 0; k < coded.data_count(); ++k) {
    const auto ch = coded.hosts(k);
    const auto rh = replication.hosts(k);
    if (!std::equal(ch.begin(), ch.end(), rh.begin(), rh.end())) return false;
  }
  for (std::size_t i = 0; i < coded.server_count(); ++i) {
    if (coded.free_kb(i) != replication.free_kb(i)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t reps = 3;
  std::size_t base_seed = 7400;
  std::string out = "BENCH_coding.json";
  util::CliParser cli(
      "ext_coding: (n, k) x storage-budget frontier — coded vs replication "
      "fault-free L_avg, degraded L_avg, and DES replay, with in-binary "
      "k=1 bit-identity and coded-dominance gates");
  cli.add_flag("smoke", &smoke, "1 rep, moderate severity only (CI)");
  cli.add_size("reps", &reps, "seeded instances per budget point");
  cli.add_size("seed", &base_seed, "first instance seed");
  cli.add_string("out", &out, "JSON output path (empty = skip)");
  bool telemetry = false;
  std::string trace_out;
  cli.add_flag("telemetry", &telemetry,
               "enable runtime telemetry (adds a telemetry block to --out)");
  cli.add_string("trace-out", &trace_out,
                 "write a chrome://tracing JSON here (implies --telemetry)");
  if (!cli.parse(argc, argv)) return 0;
  if (smoke) reps = 1;
  if (telemetry) obs::set_enabled(true);
  if (!trace_out.empty()) obs::set_trace_enabled(true);

  const std::vector<double> budgets =
      smoke ? std::vector<double>{0.5, 1.0}
            : std::vector<double>{0.5, 1.0, 1.5};
  const auto profiles = bench::make_severity_profiles(smoke);

  const model::InstanceParams base_params = sim::paper_default_params();
  // n bounds how many servers may hold a fragment of one item, so the
  // replication-equivalent config is (n = N, k = 1) — n below N would cap
  // the replica count, which plain replication does not. The coded rows
  // keep n = N (spread wherever the greedy wants) and vary the fragment
  // granularity k; one tight-n row shows the redundancy cap n/k = 2.
  const std::size_t n_servers = base_params.server_count;
  const std::vector<core::FragmentConfig> configs{{n_servers, 1},
                                                    {n_servers, 2},
                                                    {n_servers, 3},
                                                    {n_servers, 4},
                                                    {8, 4}};
  const auto approaches = sim::make_paper_approaches(100.0);
  const core::Approach* solver = nullptr;
  for (const auto& approach : approaches) {
    if (approach->name() == "IDDE-G") solver = approach.get();
  }
  IDDE_EXPECTS(solver != nullptr);

  std::printf("ext_coding: N=%zu M=%zu K=%zu, %zu rep(s), %zu budget(s), "
              "%zu config(s)\n\n",
              base_params.server_count, base_params.user_count,
              base_params.data_count, reps, budgets.size(), configs.size());

  bool k1_identical = true;
  bool coded_dominates = false;
  util::JsonArray json_budgets;

  for (const double budget : budgets) {
    model::InstanceParams params = base_params;
    params.min_storage_mb *= budget;
    params.max_storage_mb *= budget;
    const model::InstanceBuilder builder(params);

    // [config][profile] means; config index 0 is reserved for replication.
    const std::size_t rows = configs.size() + 1;
    std::vector<util::RunningStats> fault_free(rows);
    std::vector<std::vector<util::RunningStats>> degraded_none(
        rows, std::vector<util::RunningStats>(profiles.size()));
    std::vector<std::vector<util::RunningStats>> degraded_greedy(
        rows, std::vector<util::RunningStats>(profiles.size()));
    std::vector<std::vector<util::RunningStats>> avail(
        rows, std::vector<util::RunningStats>(profiles.size()));
    std::vector<util::RunningStats> des_p99(rows), des_retries(rows);
    std::vector<util::RunningStats> placements(rows);

    for (std::size_t rep = 0; rep < reps; ++rep) {
      const std::uint64_t seed = base_seed + rep;
      const model::ProblemInstance instance = builder.build(seed);
      util::Rng rng(seed ^ 0x5e111e5ULL);
      const core::Strategy strategy = solver->solve(instance, rng);

      // Replication reference sigma, re-planned from the final allocation
      // (identical to the strategy's own phase 2 — and the exact object
      // the k = 1 gate compares against).
      core::GreedyDeliveryPlanner replication_planner(instance);
      const core::GreedyDeliveryResult replication =
          replication_planner.plan(strategy.allocation);
      fault_free[0].add(core::average_latency_ms(
          instance, strategy.allocation, replication.delivery));
      placements[0].add(static_cast<double>(replication.placements));

      std::vector<fault::FaultPlan> plans(profiles.size());
      for (std::size_t f = 0; f < profiles.size(); ++f) {
        plans[f] = fault::FaultPlan::generate(instance, profiles[f].fault,
                                              seed ^ 0x4a17);
        const fault::ResilienceReport none = fault::evaluate_resilience(
            instance, strategy, plans[f], fault::RepairPolicy::kNone);
        const fault::ResilienceReport greedy = fault::evaluate_resilience(
            instance, strategy, plans[f], fault::RepairPolicy::kGreedy);
        degraded_none[0][f].add(none.degraded_latency_ms);
        degraded_greedy[0][f].add(greedy.degraded_latency_ms);
        avail[0][f].add(none.availability);
      }

      // DES replay through the first (moderate) severity plan.
      des::FlowSimOptions des_options;
      des_options.arrival_window_s = 10.0;
      des_options.fault_plan = &plans[0];
      const des::FlowLevelSimulator simulator(instance, des_options);
      util::Rng des_rng(seed ^ 0xde5ULL);
      const des::FlowSimResult replication_replay =
          simulator.run(strategy, des_rng);
      des_p99[0].add(replication_replay.p99_duration_ms);
      des_retries[0].add(static_cast<double>(replication_replay.retry_count));

      core::GreedyDeliveryPlanner coded_planner(instance);
      for (std::size_t c = 0; c < configs.size(); ++c) {
        const core::FragmentConfig config = configs[c];
        core::GreedyDeliveryResult coded =
            coded_planner.plan(strategy.allocation, config,
                               strategy.collaborative_delivery);
        const double coded_ms = core::average_latency_ms(
            instance, strategy.allocation, coded.delivery,
            strategy.collaborative_delivery);
        fault_free[c + 1].add(coded_ms);
        placements[c + 1].add(static_cast<double>(coded.placements));

        core::Strategy coded_strategy(strategy.allocation,
                                      std::move(coded.delivery));
        coded_strategy.collaborative_delivery =
            strategy.collaborative_delivery;
        coded_strategy.approach_name = "IDDE-G+coded";
        coded_strategy.placements = coded.placements;

        std::optional<fault::ResilienceReport> k1_none;
        for (std::size_t f = 0; f < profiles.size(); ++f) {
          const fault::ResilienceReport none = fault::evaluate_resilience(
              instance, coded_strategy, plans[f], fault::RepairPolicy::kNone);
          const fault::ResilienceReport greedy = fault::evaluate_resilience(
              instance, coded_strategy, plans[f],
              fault::RepairPolicy::kGreedy);
          degraded_none[c + 1][f].add(none.degraded_latency_ms);
          degraded_greedy[c + 1][f].add(greedy.degraded_latency_ms);
          avail[c + 1][f].add(none.availability);
          if (f == 0) k1_none = none;
        }

        util::Rng coded_rng(seed ^ 0xde5ULL);
        const des::FlowSimResult coded_replay =
            simulator.run(coded_strategy, coded_rng);
        des_p99[c + 1].add(coded_replay.p99_duration_ms);
        des_retries[c + 1].add(static_cast<double>(coded_replay.retry_count));

        // Gate 1: the (N, 1) config replays replication bit-for-bit.
        if (config.n == n_servers && config.k == 1) {
          const bool placements_ok = same_placements(coded_strategy.delivery,
                                                     replication.delivery);
          const double replication_ms = core::average_latency_ms(
              instance, strategy.allocation, replication.delivery);
          const bool latency_ok = coded_ms == replication_ms;
          const fault::ResilienceReport reference =
              fault::evaluate_resilience(
                  instance,
                  core::Strategy(strategy.allocation,
                                 core::DeliveryProfile(replication.delivery)),
                  plans[0], fault::RepairPolicy::kNone);
          const bool report_ok = k1_none && same_report(*k1_none, reference);
          const bool des_ok =
              same_des_result(coded_replay, replication_replay);
          if (!placements_ok || !latency_ok || !report_ok || !des_ok) {
            std::fprintf(stderr,
                         "GATE k=1 bit-identity FAILED at budget %.2f rep "
                         "%zu (placements %d, latency %d, report %d, des "
                         "%d)\n",
                         budget, rep, placements_ok, latency_ok, report_ok,
                         des_ok);
            k1_identical = false;
          }
        }
      }
    }

    // Gate 2: some k > 1 config strictly beats replication's degraded
    // L_avg (no repair) at this budget under some severity profile.
    for (std::size_t f = 0; f < profiles.size(); ++f) {
      for (std::size_t c = 0; c < configs.size(); ++c) {
        if (configs[c].k <= 1) continue;
        if (degraded_none[c + 1][f].mean() < degraded_none[0][f].mean()) {
          coded_dominates = true;
        }
      }
    }

    std::printf("storage budget x%.2f:\n", budget);
    util::TextTable table({"scheme", "fault-free L_avg (ms)",
                           "degraded (no repair)", "degraded (repair)",
                           "availability", "DES p99 (ms)", "placements"});
    util::JsonArray json_schemes;
    for (std::size_t row = 0; row < rows; ++row) {
      const std::string name =
          row == 0 ? "replication"
                   : "coded(" + std::to_string(configs[row - 1].n) + "," +
                         std::to_string(configs[row - 1].k) + ")";
      table.start_row()
          .add(name)
          .add(fault_free[row].mean())
          .add(degraded_none[row][0].mean())
          .add(degraded_greedy[row][0].mean())
          .add(avail[row][0].mean())
          .add(des_p99[row].mean())
          .add(placements[row].mean());
      util::JsonObject scheme;
      scheme["name"] = name;
      if (row > 0) {
        scheme["n"] = configs[row - 1].n;
        scheme["k"] = configs[row - 1].k;
      }
      scheme["fault_free_latency_ms"] = fault_free[row].mean();
      scheme["placements"] = placements[row].mean();
      scheme["des_p99_ms"] = des_p99[row].mean();
      scheme["des_retries"] = des_retries[row].mean();
      util::JsonArray json_profiles;
      for (std::size_t f = 0; f < profiles.size(); ++f) {
        util::JsonObject entry;
        entry["name"] = std::string(profiles[f].name);
        entry["degraded_latency_ms_no_repair"] = degraded_none[row][f].mean();
        entry["degraded_latency_ms_greedy_repair"] =
            degraded_greedy[row][f].mean();
        entry["availability"] = avail[row][f].mean();
        json_profiles.emplace_back(std::move(entry));
      }
      scheme["profiles"] = std::move(json_profiles);
      json_schemes.emplace_back(std::move(scheme));
    }
    table.print(std::cout);
    std::puts("");
    util::JsonObject json_budget;
    json_budget["storage_budget_factor"] = budget;
    json_budget["schemes"] = std::move(json_schemes);
    json_budgets.emplace_back(std::move(json_budget));
  }

  std::printf("gates: k=1 bit-identity %s, coded dominance %s\n",
              k1_identical ? "ok" : "FAILED",
              coded_dominates ? "ok" : "FAILED");

  if (!out.empty()) {
    util::JsonObject doc;
    doc["bench"] = std::string("ext_coding");
    util::JsonObject shape;
    shape["servers"] = base_params.server_count;
    shape["users"] = base_params.user_count;
    shape["data"] = base_params.data_count;
    shape["reps"] = reps;
    shape["base_seed"] = base_seed;
    doc["instance"] = std::move(shape);
    doc["budgets"] = std::move(json_budgets);
    util::JsonObject gates;
    gates["k1_bit_identical"] = k1_identical;
    gates["coded_dominates_replication"] = coded_dominates;
    doc["gates"] = std::move(gates);
    doc["telemetry"] = obs::telemetry_json();
    std::ofstream file(out);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    file << util::Json(std::move(doc)).dump(2) << "\n";
    std::printf("wrote %s\n", out.c_str());
  }
  if (!trace_out.empty()) {
    if (!obs::Tracer::global().write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", trace_out.c_str());
  }
  return (k1_identical && coded_dominates) ? 0 : 1;
}
