// ext_gray — does health-scored routing beat the binary fault model under
// gray (slow-not-dead) failures?
//
// Sweeps gray severity x routing policy at the Section 4.2 default size.
// Per (profile, repetition): solve IDDE-G fault-free, draw a seeded
// DegradationPlan (slow ramps / metastable plateaus / flapping — every
// server formally "up" the whole horizon, so the binary fault model sees
// nothing), then replay the same strategy through the gray world two ways:
//
//   binary   blind routing — what the pipeline without health scores does,
//            since FaultPlan reports all-up
//   health   health-scored source selection (gray servers demoted)
//
// Two gates run in-binary (CI runs --smoke and fails on exit != 0):
//
//  1. inert bit-identity: a null degradation pointer and a pointer to an
//     inert plan replay the plain pipeline float-for-float.
//  2. p99 win: health routing holds a strictly lower p99 than the blind
//     binary replay on every profile (aggregated over repetitions — a
//     single rep's p99-th flow can be untouched by the gray draw, in
//     which case both replays produce the identical tail).
//
// Emits BENCH_gray.json for cross-PR tracking; --smoke runs 1 rep of the
// metastable profile only (CI).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "figure_common.hpp"
#include "core/strategy.hpp"
#include "des/flow_sim.hpp"
#include "fault/degradation.hpp"
#include "model/instance_builder.hpp"
#include "obs/obs.hpp"
#include "sim/paper.hpp"
#include "sim/runner.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace idde;

struct GrayProfile {
  const char* name;
  fault::DegradationProfile degradation;
};

std::vector<GrayProfile> make_gray_profiles(bool smoke) {
  // All profiles cover the 10 s arrival window with early onsets so the
  // replayed flows actually live through the degradation, and none of
  // them ever takes a server formally down.
  fault::DegradationProfile metastable;
  metastable.horizon_s = 120.0;
  metastable.gray_fraction = 0.35;
  metastable.peak_multiplier_min = 6.0;
  metastable.peak_multiplier_max = 10.0;
  metastable.loss_prob_max = 0.0;
  metastable.onset_latest_s = 2.0;
  metastable.ramp_weight = 0.0;
  metastable.plateau_weight = 1.0;
  metastable.flap_weight = 0.0;
  metastable.plateau_s = 60.0;

  if (smoke) return {{"metastable", metastable}};

  fault::DegradationProfile ramp = metastable;
  ramp.ramp_weight = 1.0;
  ramp.plateau_weight = 0.0;
  ramp.peak_multiplier_min = 4.0;
  ramp.peak_multiplier_max = 8.0;
  ramp.ramp_s = 6.0;
  ramp.ramp_steps = 8;

  fault::DegradationProfile lossy = metastable;
  lossy.loss_prob_max = 0.05;

  return {{"slow-ramp", ramp},
          {"metastable", metastable},
          {"metastable-lossy", lossy}};
}

struct RoutingPolicy {
  const char* name;
  bool health_aware;
};

constexpr RoutingPolicy kPolicies[] = {
    {"binary", false},
    {"health", true},
};

/// Bitwise equality of the aggregate DES result plus each flow's
/// completion — the inert contract is "same events, same floats".
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
         a.retry_count == b.retry_count && a.lost_mb == b.lost_mb;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t reps = 3;
  std::size_t base_seed = 7500;
  std::string out = "BENCH_gray.json";
  util::CliParser cli(
      "ext_gray: gray-severity x routing-policy sweep — p99 latency of "
      "blind vs health-aware delivery under slow-server plans "
      "the binary fault model cannot see, with in-binary inert "
      "bit-identity and p99-win gates");
  cli.add_flag("smoke", &smoke, "1-rep metastable profile only (CI)");
  cli.add_size("reps", &reps, "seeded instances per profile");
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

  const model::InstanceParams params = sim::paper_default_params();
  const model::InstanceBuilder builder(params);
  const auto approaches =
      sim::make_paper_approaches(util::ip_budget_ms(100.0));
  const core::Approach* solver = nullptr;
  for (const auto& approach : approaches) {
    if (approach->name() == "IDDE-G") solver = approach.get();
  }
  IDDE_EXPECTS(solver != nullptr);
  const auto profiles = make_gray_profiles(smoke);

  std::printf("ext_gray: N=%zu M=%zu K=%zu, %zu rep(s)\n\n",
              params.server_count, params.user_count, params.data_count, reps);

  bool inert_identical = true;
  bool p99_win = true;
  util::JsonArray json_profiles;
  for (const GrayProfile& profile : profiles) {
    util::TextTable table(
        {"policy", "mean (ms)", "p99 (ms)", "lost MB", "losses", "cloud"});
    util::JsonArray json_policies;
    std::vector<util::RunningStats> mean_ms(std::size(kPolicies));
    std::vector<util::RunningStats> p99_ms(std::size(kPolicies));
    std::vector<util::RunningStats> lost(std::size(kPolicies));
    std::vector<util::RunningStats> losses(std::size(kPolicies));
    std::vector<util::RunningStats> cloud(std::size(kPolicies));
    std::size_t gray_servers = 0;

    for (std::size_t rep = 0; rep < reps; ++rep) {
      const std::uint64_t seed = base_seed + rep;
      const model::ProblemInstance instance = builder.build(seed);
      util::Rng solve_rng(seed ^ 0x5e111e5ULL);
      const core::Strategy strategy = solver->solve(instance, solve_rng);
      const fault::DegradationPlan plan = fault::DegradationPlan::generate(
          instance, profile.degradation, seed ^ 0x96a1);
      IDDE_EXPECTS(!plan.inert());  // a vacuous sweep gates nothing
      for (const auto& segments : plan.server_segments()) {
        if (!segments.empty()) ++gray_servers;
      }

      // Gate 1 (first profile only): a null plan and an inert plan replay
      // identically.
      if (&profile == &profiles.front()) {
        des::FlowSimOptions plain;
        plain.arrival_window_s = 10.0;
        util::Rng rng_a(seed ^ 0xde5ULL);
        const des::FlowSimResult baseline =
            des::FlowLevelSimulator(instance, plain).run(strategy, rng_a);
        const fault::DegradationPlan inert_plan;
        des::FlowSimOptions gated = plain;
        gated.degradation = &inert_plan;
        util::Rng rng_b(seed ^ 0xde5ULL);
        const des::FlowSimResult with_inert =
            des::FlowLevelSimulator(instance, gated).run(strategy, rng_b);
        if (!same_des_result(baseline, with_inert)) inert_identical = false;
      }

      for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
        des::FlowSimOptions options;
        options.arrival_window_s = 10.0;
        options.degradation = &plan;
        options.health_aware = kPolicies[p].health_aware;
        util::Rng rng(seed ^ 0xde5ULL);  // same arrivals for every policy
        const des::FlowSimResult result =
            des::FlowLevelSimulator(instance, options).run(strategy, rng);
        mean_ms[p].add(result.mean_duration_ms);
        p99_ms[p].add(result.p99_duration_ms);
        lost[p].add(result.lost_mb);
        losses[p].add(static_cast<double>(result.loss_aborts));
        cloud[p].add(static_cast<double>(result.cloud_fetches));
      }
    }
    // Gate 2: health routing must beat the blind one on every profile.
    if (!(p99_ms[1].mean() < p99_ms[0].mean())) p99_win = false;

    for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
      table.start_row()
          .add(kPolicies[p].name)
          .add(mean_ms[p].mean())
          .add(p99_ms[p].mean())
          .add(lost[p].mean())
          .add(losses[p].mean())
          .add(cloud[p].mean());
      util::JsonObject entry;
      entry["name"] = std::string(kPolicies[p].name);
      entry["mean_duration_ms"] = mean_ms[p].mean();
      entry["p99_duration_ms"] = p99_ms[p].mean();
      entry["lost_mb"] = lost[p].mean();
      entry["loss_aborts"] = losses[p].mean();
      entry["cloud_fetches"] = cloud[p].mean();
      json_policies.emplace_back(std::move(entry));
    }
    std::printf(
        "profile %s (gray %.0f%%, peak %g-%gx, loss %g, %zu gray "
        "server-draws over %zu rep(s)):\n",
        profile.name, profile.degradation.gray_fraction * 100.0,
        profile.degradation.peak_multiplier_min,
        profile.degradation.peak_multiplier_max,
        profile.degradation.loss_prob_max, gray_servers, reps);
    table.print(std::cout);
    std::puts("");

    util::JsonObject json_profile;
    json_profile["name"] = std::string(profile.name);
    json_profile["gray_fraction"] = profile.degradation.gray_fraction;
    json_profile["peak_multiplier_min"] =
        profile.degradation.peak_multiplier_min;
    json_profile["peak_multiplier_max"] =
        profile.degradation.peak_multiplier_max;
    json_profile["loss_prob_max"] = profile.degradation.loss_prob_max;
    json_profile["gray_server_draws"] = gray_servers;
    json_profile["policies"] = std::move(json_policies);
    json_profiles.emplace_back(std::move(json_profile));
  }

  std::printf("gates: inert bit-identity %s, health p99 win %s\n",
              inert_identical ? "PASS" : "FAIL", p99_win ? "PASS" : "FAIL");

  if (!out.empty()) {
    util::JsonObject doc;
    doc["bench"] = std::string("ext_gray");
    util::JsonObject shape;
    shape["servers"] = params.server_count;
    shape["users"] = params.user_count;
    shape["data"] = params.data_count;
    shape["reps"] = reps;
    shape["base_seed"] = base_seed;
    doc["instance"] = std::move(shape);
    doc["profiles"] = std::move(json_profiles);
    util::JsonObject gates;
    gates["inert_bit_identical"] = inert_identical;
    gates["health_p99_win"] = p99_win;
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
  return inert_identical && p99_win ? 0 : 1;
}
