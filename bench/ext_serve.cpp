// ext_serve — chaos validation of the self-healing online controller.
//
// Three scenarios, all deterministic trajectories of (config, seed); only
// the wall-clock measurements vary between hosts:
//
//   steady      default churn + random server faults. Reports event
//               throughput and the per-event repair wall time (p50/p99 of
//               tick time divided by the tick's event count).
//   fault-free  churn + mobility only. Gate: degraded-time fraction < 5%.
//   flash       mass failure (40% of servers drop at once) under starved
//               repair budgets. Gate: the controller re-converges (the
//               recovery counter fires) within the run.
//
// Emits BENCH_serve.json; the acceptance gates are enforced at exit so CI
// fails loudly, not silently. Telemetry is switched on after the three
// timed scenarios, and one untimed rerun of the steady scenario fills the
// report's telemetry block (the game.* and serve.* counters and spans).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "serve/controller.hpp"
#include "sim/paper.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace idde;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

serve::ServeConfig default_config(std::size_t servers, std::size_t users,
                                  std::size_t items) {
  serve::ServeConfig config;
  config.base = sim::paper_default_params();
  config.base.server_count = servers;
  config.base.user_count = users;
  config.base.data_count = items;
  config.tick_seconds = 1.0;
  config.churn.arrival_rate_hz = 1.0 / 60.0;
  config.churn.mean_session_s = 120.0;
  config.churn.initial_online_fraction = 0.9;
  config.sigma_refresh_period_ticks = 20;
  return config;
}

struct ScenarioResult {
  std::size_t ticks = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  double repair_p50_ms = 0.0;
  double repair_p99_ms = 0.0;
  double degraded_fraction = 0.0;
  serve::ServeStatus status;
};

ScenarioResult run_scenario(const serve::ServeConfig& config,
                            std::uint64_t seed, std::size_t ticks) {
  serve::ServeController controller(config, seed);
  ScenarioResult result;
  result.ticks = ticks;
  std::vector<double> per_event_ms;
  per_event_ms.reserve(ticks);
  const Clock::time_point run_start = Clock::now();
  for (std::size_t step = 0; step < ticks; ++step) {
    const Clock::time_point tick_start = Clock::now();
    const serve::TickReport report = controller.tick();
    const double tick_ms = ms_since(tick_start);
    if (report.events > 0) {
      per_event_ms.push_back(tick_ms / static_cast<double>(report.events));
    }
  }
  result.wall_ms = ms_since(run_start);
  result.status = controller.status();
  result.events_per_sec =
      result.wall_ms > 0.0
          ? static_cast<double>(result.status.events_total) /
                (result.wall_ms / 1000.0)
          : 0.0;
  if (!per_event_ms.empty()) {
    result.repair_p50_ms = util::percentile(per_event_ms, 50.0);
    result.repair_p99_ms = util::percentile(per_event_ms, 99.0);
  }
  result.degraded_fraction =
      static_cast<double>(result.status.degraded_ticks) /
      static_cast<double>(result.status.ticks);
  return result;
}

util::Json scenario_json(const char* name, const ScenarioResult& r) {
  util::JsonObject object;
  object["scenario"] = std::string(name);
  object["ticks"] = r.ticks;
  object["wall_ms"] = r.wall_ms;
  object["events_total"] = r.status.events_total;
  object["events_per_sec"] = r.events_per_sec;
  object["repairs_total"] = r.status.repairs_total;
  object["repair_rounds_total"] = r.status.repair_rounds_total;
  object["per_event_repair_p50_ms"] = r.repair_p50_ms;
  object["per_event_repair_p99_ms"] = r.repair_p99_ms;
  object["degraded_fraction"] = r.degraded_fraction;
  object["backlog_peak"] = r.status.backlog_peak;
  object["shed_total"] = r.status.shed_total;
  object["watchdog_strikes"] = r.status.watchdog_strikes;
  object["breaker_trips"] = r.status.breaker_trips;
  object["recovery_ticks"] = r.status.recovery_ticks;
  return object;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t ticks = 300;
  std::size_t seed = 9100;
  double repair_p99_budget_ms = 50.0;
  std::string out = "BENCH_serve.json";
  util::CliParser cli(
      "ext_serve: chaos validation of the online self-healing controller "
      "(steady churn+faults, fault-free degraded fraction, mass-failure "
      "recovery); writes BENCH_serve.json and enforces the gates");
  cli.add_flag("smoke", &smoke, "short run (CI)");
  cli.add_size("ticks", &ticks, "ticks per scenario");
  cli.add_size("seed", &seed, "trajectory seed");
  cli.add_double("p99-budget-ms", &repair_p99_budget_ms,
                 "gate: steady-state per-event repair p99 (ms)");
  cli.add_string("out", &out, "JSON output path (empty = skip)");
  if (!cli.parse(argc, argv)) return 0;
  if (smoke) ticks = 80;

  const std::size_t servers = smoke ? 12 : 20;
  const std::size_t users = smoke ? 60 : 120;
  const std::size_t items = smoke ? 4 : 6;

  // Scenario 1: steady serving under churn + random server faults.
  serve::ServeConfig steady = default_config(servers, users, items);
  steady.faults.horizon_s = static_cast<double>(ticks);
  steady.faults.server_mtbf_s = 150.0;
  steady.faults.server_mttr_s = 10.0;
  const ScenarioResult steady_result = run_scenario(steady, seed, ticks);

  // Scenario 2: fault-free — only churn, mobility and sigma refreshes.
  const serve::ServeConfig fault_free = default_config(servers, users, items);
  const ScenarioResult fault_free_result =
      run_scenario(fault_free, seed + 1, ticks);

  // Scenario 3: flash mass failure under starved budgets.
  serve::ServeConfig flash = default_config(servers, users, items);
  flash.churn_enabled = false;
  flash.flash_failure_tick = ticks / 4;
  flash.flash_failure_fraction = 0.4;
  flash.flash_failure_duration_ticks = 10;
  flash.repair_rounds_per_event = 4;
  flash.repair_placements_per_event = 2;
  const ScenarioResult flash_result = run_scenario(flash, seed + 2, ticks);

  // Recording starts after the last timed scenario.
  obs::set_enabled(true);
  (void)run_scenario(steady, seed, ticks);
  obs::set_enabled(false);

  util::TextTable table({"scenario", "events", "events/s", "repair p50 (ms)",
                         "repair p99 (ms)", "degraded %", "trips",
                         "recovery (ticks)"});
  const auto add_row = [&](const char* name, const ScenarioResult& r) {
    table.start_row()
        .add(name)
        .add(static_cast<double>(r.status.events_total))
        .add(r.events_per_sec)
        .add(r.repair_p50_ms)
        .add(r.repair_p99_ms)
        .add(100.0 * r.degraded_fraction)
        .add(static_cast<double>(r.status.breaker_trips))
        .add(static_cast<double>(r.status.recovery_ticks));
  };
  add_row("steady", steady_result);
  add_row("fault-free", fault_free_result);
  add_row("flash", flash_result);
  table.print(std::cout);

  // Acceptance gates.
  int failures = 0;
  if (steady_result.repair_p99_ms > repair_p99_budget_ms) {
    std::fprintf(stderr,
                 "GATE FAIL: steady per-event repair p99 %.2f ms > budget "
                 "%.2f ms\n",
                 steady_result.repair_p99_ms, repair_p99_budget_ms);
    ++failures;
  }
  if (fault_free_result.degraded_fraction >= 0.05) {
    std::fprintf(stderr,
                 "GATE FAIL: fault-free degraded fraction %.3f >= 0.05\n",
                 fault_free_result.degraded_fraction);
    ++failures;
  }
  if (flash_result.status.recovery_ticks == 0) {
    std::fprintf(stderr,
                 "GATE FAIL: no recovery after the flash mass failure\n");
    ++failures;
  }

  if (!out.empty()) {
    util::JsonObject doc;
    doc["bench"] = std::string("ext_serve");
    doc["ticks"] = ticks;
    doc["seed"] = seed;
    doc["servers"] = servers;
    doc["users"] = users;
    doc["data_items"] = items;
    util::JsonArray scenarios;
    scenarios.push_back(scenario_json("steady", steady_result));
    scenarios.push_back(scenario_json("fault_free", fault_free_result));
    scenarios.push_back(scenario_json("flash", flash_result));
    doc["scenarios"] = std::move(scenarios);
    doc["gates_passed"] = failures == 0;
    doc["telemetry"] = obs::telemetry_json();
    std::ofstream file(out);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    file << util::Json(std::move(doc)).dump(2) << "\n";
    std::printf("\nwrote %s\n", out.c_str());
  }
  if (failures > 0) {
    std::fprintf(stderr, "ext_serve: %d gate(s) failed\n", failures);
    return 1;
  }
  std::printf("ext_serve: all gates passed\n");
  return 0;
}
