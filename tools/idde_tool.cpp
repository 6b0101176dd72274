// idde_tool — command-line front end tying the serialisation layers
// together. Subcommands:
//
//   gen    --scenario <params.json> --seed S --out instance.json
//          Materialise an instance from generator parameters.
//   solve  --instance instance.json --approach IDDE-G --out strategy.json
//          Solve a stored instance and print the metrics.
//   eval   --instance instance.json --strategy strategy.json
//          Re-evaluate a stored strategy (e.g. after editing it by hand).
//   replay --instance instance.json --strategy strategy.json [--qos cfg.json]
//          [--chaos] [--load X] [--policy P] [--out report.json]
//          Replay through the overload-aware DES (DESIGN.md §12) and print
//          the SLO accounting; --chaos composes a fault plan on top.
//   serve  --ticks N --seed S [--restore snap.json] [--checkpoint snap.json]
//          Run the self-healing online controller (DESIGN.md §15): churn +
//          mobility + server faults with event-driven equilibrium repair.
//          --checkpoint writes a checksummed snapshot at the end;
//          --restore resumes one bit-identically.
//
// Run without arguments for usage. Every failure — unreadable file,
// malformed JSON, bad flag value — exits nonzero with a single structured
// "idde_tool: error: ..." line on stderr; the tool never aborts or dumps a
// backtrace on untrusted input.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include <iostream>

#include "core/metrics.hpp"
#include "serve/checkpoint.hpp"
#include "serve/controller.hpp"
#include "core/strategy_io.hpp"
#include "core/validation.hpp"
#include "model/instance_io.hpp"
#include "obs/obs.hpp"
#include "sim/overload.hpp"
#include "sim/paper.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/format.hpp"

namespace {

using namespace idde;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
}

int cmd_gen(int argc, const char* const* argv) {
  std::string scenario;
  std::string out = "instance.json";
  std::size_t seed = 1;
  util::CliParser cli("idde_tool gen: materialise an instance");
  cli.add_string("scenario", &scenario,
                 "generator params JSON (empty = paper defaults)");
  cli.add_string("out", &out, "output instance path");
  cli.add_size("seed", &seed, "generator seed");
  if (!cli.parse(argc, argv)) return 0;

  model::InstanceParams params = sim::paper_default_params();
  if (!scenario.empty()) {
    params = sim::params_from_string(read_file(scenario));
  }
  const model::ProblemInstance instance =
      model::make_instance(params, static_cast<std::uint64_t>(seed));
  write_file(out, model::instance_to_string(instance, 1));
  std::printf("wrote %s (N=%zu M=%zu K=%zu)\n", out.c_str(),
              instance.server_count(), instance.user_count(),
              instance.data_count());
  return 0;
}

const core::Approach* find_approach(
    const std::vector<core::ApproachPtr>& approaches,
    const std::string& name) {
  for (const auto& approach : approaches) {
    if (approach->name() == name) return approach.get();
  }
  return nullptr;
}

int cmd_solve(int argc, const char* const* argv) {
  std::string instance_path = "instance.json";
  std::string approach_name = "IDDE-G";
  std::string out = "strategy.json";
  std::size_t seed = 1;
  // IDDE_IP_BUDGET_MS sets the default; --ip-budget-ms overrides it.
  double ip_budget_ms = util::ip_budget_ms(200.0);
  std::size_t threads = 1;
  util::CliParser cli("idde_tool solve: solve a stored instance");
  cli.add_string("instance", &instance_path, "instance JSON path");
  cli.add_string("approach", &approach_name,
                 "IDDE-IP | IDDE-G | SAA | CDP | DUP-G");
  cli.add_string("out", &out, "output strategy path");
  cli.add_size("seed", &seed, "solver seed");
  cli.add_double("ip-budget-ms", &ip_budget_ms, "IDDE-IP budget");
  cli.add_size("threads", &threads,
               "allocation-game worker threads (1 = serial, 0 = hardware)");
  std::string trace_out;
  std::string metrics_out;
  cli.add_string("trace-out", &trace_out,
                 "write a chrome://tracing JSON of the solve here");
  cli.add_string("metrics-out", &metrics_out,
                 "write the telemetry scrape (counters/histograms/spans) here");
  if (!cli.parse(argc, argv)) return 0;
  // Either output implies telemetry; --trace-out additionally buffers the
  // span events for the timeline export.
  if (!trace_out.empty() || !metrics_out.empty()) obs::set_enabled(true);
  if (!trace_out.empty()) obs::set_trace_enabled(true);

  const model::ProblemInstance instance =
      model::instance_from_string(read_file(instance_path));
  const auto approaches = sim::make_paper_approaches(ip_budget_ms, threads);
  const core::Approach* approach = find_approach(approaches, approach_name);
  if (approach == nullptr) {
    std::fprintf(stderr, "unknown approach '%s'\n", approach_name.c_str());
    return 1;
  }
  util::Rng rng(static_cast<std::uint64_t>(seed));
  // The written strategy is the one whose metrics are printed: IDDE-IP's
  // budget is wall-clock, so a second solve could differ.
  std::optional<core::Strategy> strategy;
  const sim::RunRecord record =
      sim::run_approach(instance, *approach, rng, false, &strategy);
  std::printf("%s: R_avg %.2f MB/s, L_avg %.2f ms, %.3f ms solve, %s\n",
              record.approach.c_str(), record.metrics.avg_rate_mbps,
              record.metrics.avg_latency_ms, record.solve_ms,
              record.strategy_valid ? "valid" : "INVALID");
  write_file(out, core::strategy_to_string(*strategy, 1));
  std::printf("wrote %s\n", out.c_str());

  if (obs::enabled()) {
    std::printf("\nper-phase rollup:\n");
    obs::Tracer::global().rollup_table().print(std::cout);
  }
  if (!metrics_out.empty()) {
    write_file(metrics_out, obs::telemetry_json().dump(1) + "\n");
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    if (!obs::Tracer::global().write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", trace_out.c_str());
  }
  return 0;
}

int cmd_eval(int argc, const char* const* argv) {
  std::string instance_path = "instance.json";
  std::string strategy_path = "strategy.json";
  util::CliParser cli("idde_tool eval: evaluate a stored strategy");
  cli.add_string("instance", &instance_path, "instance JSON path");
  cli.add_string("strategy", &strategy_path, "strategy JSON path");
  if (!cli.parse(argc, argv)) return 0;

  const model::ProblemInstance instance =
      model::instance_from_string(read_file(instance_path));
  const core::Strategy strategy =
      core::strategy_from_string(instance, read_file(strategy_path));
  const auto problems = core::validate_strategy(instance, strategy);
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "violation: %s\n", problem.c_str());
  }
  const core::StrategyMetrics metrics = core::evaluate(instance, strategy);
  std::printf(
      "%s: R_avg %.2f MB/s, L_avg %.2f ms, %zu/%zu users allocated, %zu "
      "placements, %s\n",
      strategy.approach_name.empty() ? "(unnamed)"
                                     : strategy.approach_name.c_str(),
      metrics.avg_rate_mbps, metrics.avg_latency_ms, metrics.allocated_users,
      instance.user_count(), metrics.placements,
      problems.empty() ? "feasible" : "INFEASIBLE");
  return problems.empty() ? 0 : 1;
}

int cmd_replay(int argc, const char* const* argv) {
  std::string instance_path = "instance.json";
  std::string strategy_path = "strategy.json";
  std::string qos_path;
  std::string out;
  std::size_t seed = 1;
  double load = 1.0;
  double retry_ratio = -1.0;
  std::string policy_name = "deadline-aware";
  bool chaos = false;
  util::CliParser cli("idde_tool replay: overload-aware DES replay");
  cli.add_string("instance", &instance_path, "instance JSON path");
  cli.add_string("strategy", &strategy_path, "strategy JSON path");
  cli.add_string("qos", &qos_path,
                 "QoS config JSON (overrides --load/--policy/--retry-ratio)");
  cli.add_double("load", &load, "offered-load multiplier");
  cli.add_string("policy", &policy_name, "none | reject-newest | deadline-aware");
  cli.add_double("retry-ratio", &retry_ratio,
                 "retry-budget tokens per fresh arrival (<0 = unlimited)");
  cli.add_flag("chaos", &chaos, "compose the chaos fault plan on top");
  cli.add_size("seed", &seed, "arrival/fault seed");
  cli.add_string("out", &out, "write the full report JSON here");
  if (!cli.parse(argc, argv)) return 0;

  const model::ProblemInstance instance =
      model::instance_from_string(read_file(instance_path));
  const core::Strategy strategy =
      core::strategy_from_string(instance, read_file(strategy_path));

  sim::OverloadCell cell;
  cell.seed = static_cast<std::uint64_t>(seed);
  const qos::SheddingPolicy policy =
      qos::shedding_policy_from_string(policy_name);
  cell.qos = chaos ? sim::chaos_qos_config(load, policy, retry_ratio)
                   : sim::overload_qos_config(load, policy, retry_ratio);
  if (!qos_path.empty()) {
    cell.qos = qos::qos_from_json(util::Json::parse(read_file(qos_path)));
  }
  if (chaos) cell.fault = sim::chaos_fault_profile();

  const des::FlowSimResult result =
      sim::run_overload_cell(instance, strategy, cell);
  std::printf(
      "offered %zu (%.1f rps)  admitted %zu  shed %zu  rejected %zu\n"
      "goodput %zu (%.1f rps)  deadline misses %zu  mean queue wait %.2f ms\n"
      "retries %zu (denied %zu)  breaker opens %zu  forced cloud %zu\n",
      result.qos.offered, result.qos.offered_rps, result.qos.admitted,
      result.qos.shed, result.qos.rejected, result.qos.goodput_flows,
      result.qos.goodput_rps, result.qos.deadline_misses,
      result.qos.mean_queue_wait_ms, result.retry_count,
      result.qos.retries_denied, result.qos.breaker_opens,
      result.forced_cloud_fetches);
  if (!out.empty()) {
    util::JsonObject report;
    report["qos_config"] = qos::qos_to_json(cell.qos);
    report["fault_profile"] = sim::fault_profile_to_json(cell.fault);
    report["seed"] = cell.seed;
    report["stats"] = sim::qos_stats_to_json(result.qos);
    report["mean_duration_ms"] = result.mean_duration_ms;
    report["p99_duration_ms"] = result.p99_duration_ms;
    report["makespan_s"] = result.makespan_s;
    write_file(out, util::Json(std::move(report)).dump(1) + "\n");
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

int cmd_serve(int argc, const char* const* argv) {
  std::size_t ticks = 60;
  std::size_t seed = 1;
  std::size_t servers = 12;
  std::size_t users = 60;
  std::size_t data = 4;
  std::size_t flash_tick = 0;
  std::size_t threads = 1;
  std::string restore_path;
  std::string checkpoint_path;
  std::string report_path;
  util::CliParser cli(
      "idde_tool serve: self-healing online controller (churn + mobility + "
      "faults, event-driven equilibrium repair)");
  cli.add_size("ticks", &ticks, "ticks to run (after restore, if any)");
  cli.add_size("seed", &seed, "trajectory seed");
  cli.add_size("servers", &servers, "edge server count");
  cli.add_size("users", &users, "user count");
  cli.add_size("data", &data, "data item count");
  cli.add_size("flash-tick", &flash_tick,
               "inject a mass failure (40% of servers) at this tick (0 = off)");
  cli.add_size("threads", &threads, "repair solver threads");
  cli.add_string("restore", &restore_path,
                 "resume from this checkpoint (must match config + seed)");
  cli.add_string("checkpoint", &checkpoint_path,
                 "write the final checkpoint here");
  cli.add_string("out", &report_path, "write the status report JSON here");
  if (!cli.parse(argc, argv)) return 0;

  serve::ServeConfig config;
  config.base = sim::paper_default_params();
  config.base.server_count = servers;
  config.base.user_count = users;
  config.base.data_count = data;
  config.churn.arrival_rate_hz = 1.0 / 60.0;
  config.churn.mean_session_s = 120.0;
  config.churn.initial_online_fraction = 0.9;
  // Fixed fault-plan horizon, deliberately independent of --ticks: a split
  // run (checkpoint, then restore with the remaining ticks) must see the
  // exact fault plan of an uninterrupted run, or the trajectories silently
  // diverge. Past the horizon every server stays up.
  config.faults.horizon_s = 3600.0;
  config.faults.server_mtbf_s = 200.0;
  config.faults.server_mttr_s = 10.0;
  config.sigma_refresh_period_ticks = 20;
  config.solver_threads = threads;
  if (flash_tick > 0) {
    config.faults.server_mtbf_s = 0.0;
    config.flash_failure_tick = flash_tick;
    config.flash_failure_fraction = 0.4;
  }

  serve::ServeController controller(config,
                                    static_cast<std::uint64_t>(seed));
  if (!restore_path.empty()) {
    controller.restore(read_file(restore_path));
    std::printf("restored %s at tick %zu\n", restore_path.c_str(),
                controller.current_tick());
  }
  for (std::size_t step = 0; step < ticks; ++step) {
    const serve::TickReport report = controller.tick();
    if (report.events > 0 || report.degraded) {
      std::printf("tick %zu: events=%zu repairs=%zu backlog=%zu shed=%zu%s%s\n",
                  report.tick, report.events, report.repairs, report.backlog,
                  report.shed, report.degraded ? " degraded" : "",
                  report.breaker_open ? " BREAKER-OPEN" : "");
    }
  }
  const serve::ServeStatus& status = controller.status();
  std::printf(
      "serve: %zu ticks, %zu events, %zu repairs (%zu rounds), "
      "%zu degraded tick(s), %zu strike(s), %zu trip(s), backlog %zu\n"
      "trajectory hash %016llx\n",
      status.ticks, status.events_total, status.repairs_total,
      status.repair_rounds_total, status.degraded_ticks,
      status.watchdog_strikes, status.breaker_trips,
      controller.backlog_size(),
      static_cast<unsigned long long>(controller.trajectory_hash()));

  if (!checkpoint_path.empty()) {
    write_file(checkpoint_path, controller.checkpoint(1) + "\n");
    std::printf("wrote %s\n", checkpoint_path.c_str());
  }
  if (!report_path.empty()) {
    util::JsonObject report;
    report["ticks"] = status.ticks;
    report["events_total"] = status.events_total;
    report["repairs_total"] = status.repairs_total;
    report["repair_rounds_total"] = status.repair_rounds_total;
    report["degraded_ticks"] = status.degraded_ticks;
    report["backlog_peak"] = status.backlog_peak;
    report["shed_total"] = status.shed_total;
    report["watchdog_strikes"] = status.watchdog_strikes;
    report["breaker_trips"] = status.breaker_trips;
    report["lkg_restores"] = status.lkg_restores;
    report["recovery_ticks"] = status.recovery_ticks;
    report["backlog"] = controller.backlog_size();
    report["trajectory_hash"] = serve::u64_to_hex(controller.trajectory_hash());
    write_file(report_path, util::Json(std::move(report)).dump(1) + "\n");
    std::printf("wrote %s\n", report_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::puts(
        "usage: idde_tool <gen|solve|eval|replay|serve> [options]\n"
        "  gen    materialise an instance from generator params\n"
        "  solve  solve a stored instance with one approach\n"
        "  eval   re-evaluate a stored strategy\n"
        "  replay overload-aware DES replay (admission/retry/breakers)\n"
        "  serve  self-healing online controller (checkpoint/restore)\n"
        "run a subcommand with --help for its options");
    return 1;
  }
  const std::string command = argv[1];
  // Top-level handler: every failure is one structured line on stderr and
  // a nonzero exit — malformed input must never abort or print a raw
  // backtrace (tools/test_idde_tool_cli.sh pins this).
  try {
    if (command == "gen") return cmd_gen(argc - 1, argv + 1);
    if (command == "solve") return cmd_solve(argc - 1, argv + 1);
    if (command == "eval") return cmd_eval(argc - 1, argv + 1);
    if (command == "replay") return cmd_replay(argc - 1, argv + 1);
    if (command == "serve") return cmd_serve(argc - 1, argv + 1);
    std::fprintf(stderr, "idde_tool: error: unknown command '%s'\n",
                 command.c_str());
    return 2;
  } catch (const idde::util::JsonError& error) {
    if (error.offset() != idde::util::JsonError::npos) {
      std::fprintf(stderr, "idde_tool: error: %s: invalid JSON at byte %zu: %s\n",
                   command.c_str(), error.offset(), error.what());
    } else {
      std::fprintf(stderr, "idde_tool: error: %s: invalid input: %s\n",
                   command.c_str(), error.what());
    }
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "idde_tool: error: %s: %s\n", command.c_str(),
                 error.what());
    return 1;
  } catch (...) {
    std::fprintf(stderr, "idde_tool: error: %s: unknown error\n",
                 command.c_str());
    return 1;
  }
}
