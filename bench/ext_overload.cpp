// ext_overload — what saves goodput when offered load exceeds capacity?
//
// The paper's Eq. 8/9 model admits every request instantly; this bench
// replays IDDE-G's strategy through the overload-aware DES (DESIGN.md
// §12) over a load-multiplier x shedding-policy x retry-budget grid.
// Open-loop Poisson arrivals decouple offered load from the request
// matrix; per-server admission (bounded slots + waiting room) makes
// overload bite; the policies differ in what they drop:
//
//   none            unbounded FIFO — the congestion-collapse control
//                   group. Every request is eventually served, almost
//                   none within its deadline.
//   reject-newest   bounded queue, drop arrivals on overflow.
//   deadline-aware  additionally purge requests whose deadline is
//                   provably unmeetable, at arrival and at the queue
//                   head.
//
// Acceptance (recorded in BENCH_overload.json, enforced at exit): at a
// 10x load, deadline-aware shedding keeps goodput >= 80% of the 1x
// goodput, while the no-shedding control collapses below 50% of it.
//
// --soak N runs the chaos mode instead: N seeds of overload + fault plan
// + circuit breakers on a small instance, checking the accounting
// invariant (admitted + shed + rejected == offered) per seed. CI runs it
// under ASan/UBSan; any crash, leak or accounting hole fails the job.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dynamic/churn.hpp"
#include "dynamic/mobility.hpp"
#include "model/instance_builder.hpp"
#include "obs/obs.hpp"
#include "sim/overload.hpp"
#include "sim/paper.hpp"
#include "sim/runner.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace idde;

core::ApproachPtr find_approach(std::vector<core::ApproachPtr>& approaches,
                                const std::string& name) {
  for (core::ApproachPtr& approach : approaches) {
    if (approach->name() == name) return std::move(approach);
  }
  std::fprintf(stderr, "approach %s not found\n", name.c_str());
  std::exit(1);
}

struct PolicyAxis {
  const char* label;
  qos::SheddingPolicy policy;
};

constexpr PolicyAxis kPolicies[] = {
    {"none", qos::SheddingPolicy::kNone},
    {"reject-newest", qos::SheddingPolicy::kRejectNewest},
    {"deadline-aware", qos::SheddingPolicy::kDeadlineAware},
};

/// The chaos soak: seeded (load, policy, process) variations composed
/// with a fault plan and live breakers. Returns the number of seeds that
/// violated the accounting invariant (the engine also IDDE_ASSERTs it).
int run_soak(std::size_t seeds, std::uint64_t base_seed) {
  model::InstanceParams params;
  params.server_count = 10;
  params.user_count = 50;
  params.data_count = 4;
  const model::InstanceBuilder builder(params);
  auto approaches = sim::make_paper_approaches(50.0);
  const core::ApproachPtr idde_g = find_approach(approaches, "IDDE-G");

  std::size_t violations = 0;
  for (std::size_t s = 0; s < seeds; ++s) {
    const std::uint64_t seed = base_seed + s;
    const model::ProblemInstance instance = builder.build(seed);
    util::Rng rng(seed ^ 0x5e111e5ULL);
    const core::Strategy strategy = idde_g->solve(instance, rng);

    // The chaos layer also draws the dynamic events: walk every user for a
    // few simulated seconds (so the replay runs a *stale* strategy in a
    // drifted world) and knock churned-offline users out of the
    // allocation (their requests fall through to the cloud path).
    util::Rng walk_rng(seed ^ 0x3a1c0deULL);
    dynamic::RandomWaypointModel mobility(
        dynamic::user_positions(instance),
        geo::BoundingBox::square(params.eua.area_side_m), {}, walk_rng);
    for (std::size_t step = 0; step <= s % 4; ++step) {
      mobility.step(1.0, walk_rng);
    }
    model::ProblemInstance drifted = instance;
    drifted.set_user_positions(
        mobility.positions(),
        radio::PathLossModel(params.pathloss_eta, params.pathloss_exponent));
    util::Rng churn_rng(seed ^ 0xc1124ULL);
    dynamic::ChurnParams churn_params;
    churn_params.initial_online_fraction = 0.8;
    dynamic::ChurnProcess churn(instance.user_count(), churn_params,
                                churn_rng);
    churn.step(5.0, churn_rng);
    core::AllocationProfile churned_allocation = strategy.allocation;
    std::size_t offline = 0;
    for (std::size_t j = 0; j < churned_allocation.size(); ++j) {
      if (!churn.online(j)) {
        churned_allocation[j] = core::kUnallocated;
        ++offline;
      }
    }
    const core::Strategy churned(std::move(churned_allocation),
                                 strategy.delivery);

    sim::OverloadCell cell;
    const double loads[] = {2.0, 6.0, 10.0};
    // Cycle the retry budget through empty (every abort goes cloud-direct),
    // tight and unlimited, so all three budget paths soak.
    const double ratios[] = {0.0, 0.1, -1.0};
    cell.qos = sim::chaos_qos_config(loads[s % 3], kPolicies[s % 3].policy,
                                     ratios[s % 3]);
    if (s % 2 == 1) {
      cell.qos.arrivals.process = qos::ArrivalProcess::kFlashCrowd;
    }
    cell.fault = sim::chaos_fault_profile();
    cell.seed = seed;
    const des::FlowSimResult result =
        sim::run_overload_cell(drifted, churned, cell);
    const des::QosStats& stats = result.qos;
    const bool ok =
        stats.admitted + stats.shed + stats.rejected == stats.offered;
    if (!ok) ++violations;
    std::printf(
        "soak seed %llu: offline=%zu offered=%zu admitted=%zu shed=%zu "
        "rejected=%zu denied=%zu breaker_opens=%zu %s\n",
        static_cast<unsigned long long>(seed), offline, stats.offered,
        stats.admitted, stats.shed, stats.rejected, stats.retries_denied,
        stats.breaker_opens, ok ? "ok" : "ACCOUNTING VIOLATION");
  }
  if (violations > 0) {
    std::fprintf(stderr, "soak: %zu of %zu seeds violated accounting\n",
                 violations, seeds);
    return 1;
  }
  std::printf("soak: %zu seeds clean (accounting exact, no crashes)\n", seeds);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t soak = 0;
  std::size_t reps = 3;
  std::size_t base_seed = 8200;
  std::string out = "BENCH_overload.json";
  util::CliParser cli(
      "ext_overload: load x shedding-policy x retry-budget sweep through "
      "the overload-aware DES; --soak N runs the chaos mode (overload + "
      "faults + breakers) over N seeds");
  cli.add_flag("smoke", &smoke, "reduced grid, 1 rep (CI)");
  cli.add_size("soak", &soak, "chaos-soak seed count (0 = run the sweep)");
  cli.add_size("reps", &reps, "seeded instances per cell");
  cli.add_size("seed", &base_seed, "first instance seed");
  cli.add_string("out", &out, "JSON output path (empty = skip)");
  bool telemetry = false;
  cli.add_flag("telemetry", &telemetry,
               "enable runtime telemetry (adds a telemetry block to --out)");
  if (!cli.parse(argc, argv)) return 0;
  if (telemetry) obs::set_enabled(true);
  if (soak > 0) return run_soak(soak, base_seed);
  if (smoke) reps = 1;

  model::InstanceParams params;
  params.server_count = 15;
  params.user_count = 100;
  params.data_count = 5;
  const model::InstanceBuilder builder(params);
  auto approaches = sim::make_paper_approaches(100.0);
  const core::ApproachPtr idde_g = find_approach(approaches, "IDDE-G");

  const std::vector<double> loads =
      smoke ? std::vector<double>{1.0, 10.0}
            : std::vector<double>{1.0, 3.0, 10.0};
  const std::vector<double> retry_ratios =
      smoke ? std::vector<double>{0.1} : std::vector<double>{-1.0, 0.1};

  std::printf("ext_overload: N=%zu M=%zu K=%zu, %zu rep(s)\n\n",
              params.server_count, params.user_count, params.data_count,
              reps);

  // Solve once per rep; every cell replays the same strategies.
  std::vector<model::ProblemInstance> instances;
  std::vector<core::Strategy> strategies;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const std::uint64_t seed = base_seed + rep;
    instances.push_back(builder.build(seed));
    util::Rng rng(seed ^ 0x5e111e5ULL);
    strategies.push_back(idde_g->solve(instances.back(), rng));
  }

  util::JsonArray json_cells;
  // goodput_rps means for the acceptance check, keyed below.
  double goodput_1x_deadline = 0.0;
  double goodput_10x_deadline = 0.0;
  double goodput_10x_none = 0.0;
  for (const double load : loads) {
    util::TextTable table({"policy", "retry-ratio", "offered/s", "goodput/s",
                           "shed", "rejected", "misses", "p99 (ms)",
                           "queue wait (ms)"});
    for (const PolicyAxis& axis : kPolicies) {
      for (const double ratio : retry_ratios) {
        util::RunningStats goodput, offered, shed, rejected, misses, p99,
            wait;
        for (std::size_t rep = 0; rep < reps; ++rep) {
          sim::OverloadCell cell;
          cell.qos = sim::overload_qos_config(load, axis.policy, ratio);
          cell.seed = base_seed + rep;
          const des::FlowSimResult result = sim::run_overload_cell(
              instances[rep], strategies[rep], cell);
          goodput.add(result.qos.goodput_rps);
          offered.add(result.qos.offered_rps);
          shed.add(static_cast<double>(result.qos.shed));
          rejected.add(static_cast<double>(result.qos.rejected));
          misses.add(static_cast<double>(result.qos.deadline_misses));
          p99.add(result.p99_duration_ms);
          wait.add(result.qos.mean_queue_wait_ms);
        }
        table.start_row()
            .add(axis.label)
            .add(ratio)
            .add(offered.mean())
            .add(goodput.mean())
            .add(shed.mean())
            .add(rejected.mean())
            .add(misses.mean())
            .add(p99.mean())
            .add(wait.mean());
        util::JsonObject cell_json;
        cell_json["load_multiplier"] = load;
        cell_json["policy"] = std::string(axis.label);
        cell_json["retry_ratio"] = ratio;
        cell_json["offered_rps"] = offered.mean();
        cell_json["goodput_rps"] = goodput.mean();
        cell_json["shed"] = shed.mean();
        cell_json["rejected"] = rejected.mean();
        cell_json["deadline_misses"] = misses.mean();
        cell_json["p99_ms"] = p99.mean();
        cell_json["mean_queue_wait_ms"] = wait.mean();
        json_cells.emplace_back(std::move(cell_json));

        // The acceptance cells all use the bounded retry budget.
        if (ratio == retry_ratios.back()) {
          if (load == 1.0 &&
              axis.policy == qos::SheddingPolicy::kDeadlineAware) {
            goodput_1x_deadline = goodput.mean();
          }
          if (load == 10.0 &&
              axis.policy == qos::SheddingPolicy::kDeadlineAware) {
            goodput_10x_deadline = goodput.mean();
          }
          if (load == 10.0 && axis.policy == qos::SheddingPolicy::kNone) {
            goodput_10x_none = goodput.mean();
          }
        }
      }
    }
    std::printf("load %gx:\n", load);
    table.print(std::cout);
    std::puts("");
  }

  // Deadline-aware shedding must hold goodput at or above the 1x level
  // under a 10x load; the no-shedding control must demonstrably collapse —
  // its goodput falls below half of what shedding achieves at the same
  // load (its absolute floor is propped up by uncapacitated cloud-direct
  // serves, which scale with load, so the collapse is measured against
  // the achievable goodput).
  const double deadline_ratio =
      goodput_1x_deadline > 0.0 ? goodput_10x_deadline / goodput_1x_deadline
                                : 0.0;
  const double none_ratio =
      goodput_10x_deadline > 0.0 ? goodput_10x_none / goodput_10x_deadline
                                 : 1.0;
  const bool pass = deadline_ratio >= 0.8 && none_ratio < 0.5;
  std::printf(
      "acceptance: deadline-aware 10x/1x goodput %.2f (need >= 0.80), "
      "no-shedding/deadline-aware at 10x %.2f (need < 0.50): %s\n",
      deadline_ratio, none_ratio, pass ? "PASS" : "FAIL");

  if (!out.empty()) {
    util::JsonObject doc;
    doc["bench"] = std::string("ext_overload");
    util::JsonObject shape;
    shape["servers"] = params.server_count;
    shape["users"] = params.user_count;
    shape["data"] = params.data_count;
    shape["reps"] = reps;
    shape["base_seed"] = base_seed;
    doc["instance"] = std::move(shape);
    doc["qos_defaults"] = qos::qos_to_json(sim::overload_qos_config(
        1.0, qos::SheddingPolicy::kDeadlineAware, 0.1));
    doc["cells"] = std::move(json_cells);
    util::JsonObject acceptance;
    acceptance["goodput_rps_1x_deadline_aware"] = goodput_1x_deadline;
    acceptance["goodput_rps_10x_deadline_aware"] = goodput_10x_deadline;
    acceptance["goodput_rps_10x_none"] = goodput_10x_none;
    acceptance["deadline_aware_ratio"] = deadline_ratio;
    acceptance["none_ratio"] = none_ratio;
    acceptance["pass"] = pass;
    doc["acceptance"] = std::move(acceptance);
    doc["telemetry"] = obs::telemetry_json();
    std::ofstream file(out);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    file << util::Json(std::move(doc)).dump(2) << "\n";
    std::printf("wrote %s\n", out.c_str());
  }
  return pass ? 0 : 1;
}
