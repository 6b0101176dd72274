// idde_perfbench — one measured run of one end-to-end workload.
//
//   idde_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--short] [--trace-out PATH] [--telemetry-out PATH]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// spends half the time untraced and half traced (benchmark-side spans plus
// the program's own obs rollup) and reports the per-layer metrics, with the
// gap between the two halves' op_ms_p50 as the tracing overhead. Every
// failed check is counted and printed, never fatal. The last stdout line is
// the result object; the line before it is the full report (README.md).
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "spans.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using idde::util::Json;
using idde::util::JsonObject;

/// The end-to-end metrics BENCHMARK.json bounds; the report carries more.
const char* const kBoundedMetrics[] = {"setup_s", "ops_per_s", "op_ms_p50",
                                       "peak_rss_mb"};

/// Counters of the program's obs registry taken at the end of round 0.
const char* const kRound0Counters[] = {
    "game.moves_total", "game.rounds_total", "delivery.placements_total"};

/// Layers, named after the modules; "bench" is the harness's own time.
const char* const kLayers[] = {"bench", "model",     "core", "baselines",
                               "fault", "des", "serve"};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};
using Metrics = std::map<std::string, Metric>;

struct Phase {
  std::vector<double> setup_s;
  std::vector<double> op_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, std::size_t> failure_counts;
  double loop_s = 0.0;
  bool round0_done = false;
  Values exact;
  Values counters;
  Values work;

  [[nodiscard]] double op_ms_p50() const {
    return op_ms.empty() ? 0.0 : idde::util::percentile(op_ms, 50.0);
  }
};

void record_failure(Phase& phase, const char* what, std::uint64_t index,
                    const OpOutcome& outcome) {
  ++phase.failed;
  for (const std::string& failure : outcome.failures) {
    if (phase.failure_counts[failure]++ == 0) {
      std::printf("perfbench: %s %llu failed: %s\n", what,
                  static_cast<unsigned long long>(index), failure.c_str());
    }
  }
}

/// Set-up repetitions: at least kMinSetupReps and kSetupBudgetS seconds of
/// set-up (capped at kMaxSetupReps). The host's speed drifts over seconds,
/// so a median over a 2 s window is much steadier than one over 0.25 s.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 10000;
constexpr double kSetupBudgetS = 2.0;

/// Set-up repeated (once when `single_setup`), then ops until `seconds`
/// have passed and round 0 is complete.
Phase run_phase(Workload& workload, double seconds, bool single_setup,
                SpanLog& spans, bool traced) {
  Phase phase;
  const Clock::time_point setup_start = Clock::now();
  for (std::size_t rep = 0;; ++rep) {
    const bool enough =
        single_setup ? rep >= 1
                     : rep >= kMaxSetupReps ||
                           (rep >= kMinSetupReps &&
                            seconds_since(setup_start) >= kSetupBudgetS);
    if (enough) break;
    const Clock::time_point start = Clock::now();
    OpOutcome outcome;
    bool threw = false;
    try {
      const Scope scope(spans, "bench.setup");
      outcome = workload.setup(spans);
    } catch (const std::exception& error) {
      outcome.fail(std::string("set-up threw: ") + error.what());
      threw = true;
    }
    phase.setup_s.push_back(seconds_since(start));
    if (!outcome.ok()) {
      ++phase.attempted;
      record_failure(phase, "set-up", rep, outcome);
    }
    if (threw) return phase;
  }

  // The rollup and counters then cover the ops only.
  if (traced) idde::obs::reset_all();
  const std::size_t round = workload.round_size();
  const Clock::time_point loop_start = Clock::now();
  for (std::uint64_t op = 0;; ++op) {
    if (op >= round && seconds_since(loop_start) >= seconds) break;
    spans.set_op(op);
    OpOutcome outcome;
    const Clock::time_point start = Clock::now();
    try {
      const Scope scope(spans, "bench.op");
      outcome = workload.run_op(op, spans);
    } catch (const std::exception& error) {
      outcome.fail(std::string("op threw: ") + error.what());
    }
    phase.op_ms.push_back(seconds_since(start) * 1e3);
    ++phase.attempted;
    if (!outcome.ok()) record_failure(phase, "op", op, outcome);
    if (op + 1 == round) {
      phase.round0_done = true;
      phase.exact = workload.exact();
      if (traced) {
        for (const char* name : kRound0Counters) {
          phase.counters[name] = static_cast<double>(
              idde::obs::MetricsRegistry::global().counter(name).value());
        }
      }
    }
  }
  phase.loop_s = seconds_since(loop_start);
  phase.work = workload.work();
  return phase;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

double value_or_zero(const Values& values, const std::string& name) {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

/// FNV-1a over "name=value;" of every exact value, values at full
/// precision: equal digests mean the same computation.
std::string digest(const Values& exact) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& [name, value] : exact) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "=%.17g;", value);
    for (const char c : name + buffer) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

const char* quality_unit(const std::string& name) {
  if (name.ends_with("_ms") || name.ends_with("_ms_p99")) return "ms";
  if (name.ends_with("_mbps")) return "MB/s";
  return "ratio";
}

Metrics end_to_end(const Phase& phase, std::size_t round) {
  Metrics metrics;
  const std::size_t ops = phase.op_ms.size();
  metrics["setup_s"] = {
      phase.setup_s.empty() ? 0.0
                            : idde::util::percentile(phase.setup_s, 50.0),
      "s", phase.setup_s.size()};
  metrics["ops_per_s"] = {
      phase.loop_s > 0.0 ? static_cast<double>(ops) / phase.loop_s : 0.0,
      "1/s", ops};
  metrics["op_ms_p50"] = {phase.op_ms_p50(), "ms", ops};
  metrics["op_ms_p90"] = {
      ops == 0 ? 0.0 : idde::util::percentile(phase.op_ms, 90.0), "ms", ops};
  metrics["peak_rss_mb"] = {peak_rss_mb(), "MB", 1};
  metrics["failed_frac"] = {
      phase.attempted == 0 ? 0.0
                           : static_cast<double>(phase.failed) /
                                 static_cast<double>(phase.attempted),
      "ratio", phase.attempted};
  for (const auto& [name, value] : phase.exact) {
    if (!name.starts_with("quality.")) continue;
    const std::string metric = name.substr(8);
    metrics[metric] = {value, quality_unit(metric), round};
  }
  return metrics;
}

/// Per-layer metrics of the traced phase (README.md lists each one and the
/// end-to-end metric it should move).
Metrics per_layer(const Phase& traced, const Phase& untraced,
                  const SpanLog& spans, const Json& rollup) {
  const auto ops = spans.totals_under("bench.op");
  const auto setups = spans.totals_under("bench.setup");
  const std::size_t n = traced.op_ms.size();
  const auto self_ms = [&ops](const char* name) {
    const auto it = ops.find(name);
    return it == ops.end() ? 0.0 : it->second.self_ms;
  };
  const auto total_ms = [&ops](const char* name) {
    const auto it = ops.find(name);
    return it == ops.end() ? 0.0 : it->second.total_ms;
  };
  const auto per_op = [n](double ms) {
    return n == 0 ? 0.0 : ms / static_cast<double>(n);
  };
  const auto rollup_ms = [&rollup](const char* name) {
    const Json* entry = rollup.find(name);
    return entry == nullptr ? 0.0 : entry->number_or("total_ms", 0.0);
  };
  const auto rate = [](double count, double ms) {
    return ms > 0.0 ? count / (ms / 1e3) : 0.0;
  };
  const double op_total = total_ms("bench.op");
  const auto share = [op_total](double ms) {
    return op_total > 0.0 ? ms / op_total : 0.0;
  };

  Metrics m;
  const auto set = [&m](const char* name, double value, const char* unit,
                        std::size_t samples) {
    m[name] = {value, unit, samples};
  };
  set("model.build.ms", per_op(self_ms("model.build")), "ms", n);
  set("model.build.share", share(self_ms("model.build")), "ratio", n);
  set("model.write.ms", per_op(self_ms("model.write")), "ms", n);
  set("model.read.ms", per_op(self_ms("model.read")), "ms", n);
  const double users = value_or_zero(traced.exact, "model.users");
  set("model.bytes_per_user",
      users > 0.0 ? value_or_zero(traced.exact, "model.bytes") / users : 0.0,
      "B/user", 1);
  set("core.solve.ms", per_op(total_ms("core.solve")), "ms", n);
  set("core.game.ms", per_op(rollup_ms("game.solve")), "ms", n);
  set("core.greedy.ms", per_op(rollup_ms("delivery.plan")), "ms", n);
  set("core.game.moves", value_or_zero(traced.counters, "game.moves_total"),
      "count", 1);
  set("core.game.rounds", value_or_zero(traced.counters, "game.rounds_total"),
      "count", 1);
  set("core.greedy.placements",
      value_or_zero(traced.counters, "delivery.placements_total"), "count", 1);
  set("core.evaluate.ms", per_op(self_ms("core.evaluate")), "ms", n);
  set("core.validate.ms", per_op(self_ms("core.validate")), "ms", n);
  set("baselines.solve.ms", per_op(total_ms("baselines.solve")), "ms", n);
  set("fault.plan.ms", per_op(self_ms("fault.plan")), "ms", n);
  set("des.run.ms", per_op(total_ms("des.run")), "ms", n);
  set("des.events_per_s",
      rate(value_or_zero(traced.work, "des.events"), total_ms("des.run")),
      "1/s", n);
  for (const char* name :
       {"des.flows", "des.rate_recomputations", "des.retries", "des.shed"}) {
    set(name, value_or_zero(traced.exact, name), "count", 1);
  }
  const auto init = setups.find("serve.init");
  set("serve.init.ms",
      init == setups.end()
          ? 0.0
          : init->second.total_ms / static_cast<double>(init->second.count),
      "ms", init == setups.end() ? 0 : init->second.count);
  set("serve.tick.ms", per_op(total_ms("serve.tick")), "ms", n);
  set("serve.events_per_s",
      rate(value_or_zero(traced.work, "serve.events"), total_ms("serve.tick")),
      "1/s", n);
  for (const char* name : {"serve.events", "serve.repairs",
                           "serve.repair_rounds", "serve.backlog_peak",
                           "serve.shed"}) {
    set(name, value_or_zero(traced.exact, name), "count", 1);
  }
  for (const char* layer : kLayers) {
    const std::string prefix = std::string(layer) + ".";
    double layer_ms = 0.0;
    for (const auto& [name, totals] : ops) {
      if (name.starts_with(prefix)) layer_ms += totals.self_ms;
    }
    m[prefix + "share"] = {share(layer_ms), "ratio", n};
  }
  const double untraced_p50 = untraced.op_ms_p50();
  const double overhead = traced.op_ms_p50() - untraced_p50;
  set("trace.overhead_ms", overhead, "ms", n);
  set("trace.overhead_frac", untraced_p50 > 0.0 ? overhead / untraced_p50 : 0.0,
      "ratio", n);
  set("obs.rollup_phases",
      rollup.is_object() ? static_cast<double>(rollup.as_object().size())
                         : 0.0,
      "count", 1);
  return m;
}

Json metrics_json(const Metrics& metrics, bool with_samples) {
  JsonObject object;
  for (const auto& [name, metric] : metrics) {
    JsonObject entry;
    entry["value"] = metric.value;
    entry["unit"] = metric.unit;
    if (with_samples) entry["samples"] = metric.samples;
    object[name] = std::move(entry);
  }
  return Json(std::move(object));
}

bool write_text(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  return std::fclose(file) == 0 && ok;
}

int run(int argc, char** argv) {
  std::string workload_name;
  std::size_t seed = 1;
  double seconds = 10.0;
  std::size_t trace = 0;
  bool short_mode = false;
  std::string trace_out;
  std::string telemetry_out;
  int pin_point = -1;
  std::size_t pin_instance_seed = 0;
  idde::util::CliParser cli(
      "idde_perfbench: one measured run of one end-to-end workload");
  cli.add_string("workload", &workload_name,
                 "sweep-paper | metro-pipeline | replay-chaos | serve-city");
  cli.add_size("seed", &seed, "workload seed (inputs are derived from it)");
  cli.add_double("seconds", &seconds, "time budget of the op loop");
  cli.add_size("trace", &trace, "0 = end-to-end metrics, 1 = per-layer");
  cli.add_flag("short", &short_mode, "smaller sizes, one round (tests)");
  cli.add_string("trace-out", &trace_out, "Chrome trace of the traced half");
  cli.add_string("telemetry-out", &telemetry_out,
                 "obs telemetry scrape of the traced half");
  cli.add_int("pin-point", &pin_point,
              "sweep-paper: run only this Table-2 point (0-26)");
  cli.add_size("pin-instance-seed", &pin_instance_seed,
               "sweep-paper: instance seed of the pinned point");
  if (!cli.parse(argc, argv)) return 0;
  if (trace > 1 || seconds < 0.0) {
    std::fprintf(stderr, "perfbench: --trace must be 0 or 1, --seconds >= 0\n");
    return 2;
  }

  WorkloadOptions options;
  options.seed = seed;
  options.short_mode = short_mode;
  options.pin_point = pin_point;
  options.pin_instance_seed = pin_instance_seed;
  const std::unique_ptr<Workload> workload =
      make_workload(workload_name, options);

  SpanLog spans;
  const bool traced_run = trace == 1;
  const bool single_setup = short_mode || traced_run;
  Phase untraced = run_phase(*workload, traced_run ? seconds / 2 : seconds,
                             single_setup, spans, false);
  Phase traced;
  Json rollup;
  if (traced_run) {
    idde::obs::set_enabled(true);
    spans.set_enabled(true);
    traced = run_phase(*workload, seconds / 2, true, spans, true);
    spans.set_enabled(false);
    rollup = idde::obs::Tracer::global().rollup_json();
    if (!trace_out.empty() &&
        !write_text(trace_out, spans.chrome_trace().dump() + "\n")) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    if (!telemetry_out.empty() &&
        !write_text(telemetry_out, idde::obs::telemetry_json().dump(1) + "\n")) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   telemetry_out.c_str());
      return 1;
    }
    idde::obs::set_enabled(false);
  }

  const std::size_t round = workload->round_size();
  const Metrics e2e = end_to_end(untraced, round);
  const std::string run_digest = digest(untraced.exact);
  bool correct = untraced.failed == 0 && untraced.round0_done;
  Metrics layers;
  if (traced_run) {
    layers = per_layer(traced, untraced, spans, rollup);
    double shares = 0.0;
    for (const char* layer : kLayers) {
      shares += layers[std::string(layer) + ".share"].value;
    }
    // Both halves compute the same thing; the telemetry must say something.
    const bool same = digest(traced.exact) == run_digest;
    const bool shares_ok = shares > 1.0 - 1e-9 && shares < 1.0 + 1e-9;
    const bool telemetry_ok = layers["obs.rollup_phases"].value > 0.0;
    if (!same) std::printf("perfbench: traced half computed another digest\n");
    if (!shares_ok) std::printf("perfbench: layer shares sum to %.12f\n", shares);
    if (!telemetry_ok) std::printf("perfbench: obs rollup is empty\n");
    correct = correct && traced.failed == 0 && traced.round0_done && same &&
              shares_ok && telemetry_ok;
  }

  JsonObject report;
  report["workload"] = workload_name;
  report["seed"] = seed;
  report["short"] = short_mode;
  report["trace"] = traced_run;
  report["round_ops"] = round;
  report["ops"] = untraced.op_ms.size();
  report["loop_s"] = untraced.loop_s;
  report["digest"] = run_digest;
  report["e2e"] = metrics_json(e2e, true);
  JsonObject exact;
  for (const auto& [name, value] : untraced.exact) exact[name] = value;
  report["exact"] = std::move(exact);
  std::map<std::string, std::size_t> failure_counts = untraced.failure_counts;
  for (const auto& [reason, count] : traced.failure_counts) {
    failure_counts[reason] += count;
  }
  JsonObject failures;
  for (const auto& [reason, count] : failure_counts) failures[reason] = count;
  report["failures"] = std::move(failures);
  if (traced_run) {
    report["traced_ops"] = traced.op_ms.size();
    report["per_layer"] = metrics_json(layers, true);
    report["rollup"] = rollup;
  }
  std::printf("perfbench-report %s\n", Json(std::move(report)).dump().c_str());

  Metrics contract;
  if (traced_run) {
    contract = layers;
  } else {
    for (const char* name : kBoundedMetrics) contract[name] = e2e.at(name);
  }
  JsonObject result;
  result["correct"] = correct;
  result["attempted"] = untraced.attempted + traced.attempted;
  result["failed"] = untraced.failed + traced.failed;
  result["metrics"] = metrics_json(contract, false);
  std::printf("%s\n", Json(std::move(result)).dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: error: %s\n", error.what());
    return 2;
  }
}
