#include "workloads.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "baselines/cdp.hpp"
#include "baselines/dup_g.hpp"
#include "baselines/saa.hpp"
#include "core/idde_g.hpp"
#include "core/metrics.hpp"
#include "core/validation.hpp"
#include "des/flow_sim.hpp"
#include "fault/fault_plan.hpp"
#include "model/instance_builder.hpp"
#include "model/instance_io.hpp"
#include "serve/controller.hpp"
#include "sim/overload.hpp"
#include "sim/paper.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

namespace {

using namespace idde;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Independent seed streams per (run seed, purpose, index), so one
/// workload's inputs never shift when another draws more.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  return mix64(mix64(seed ^ mix64(stream)) + index);
}

/// True when validate_strategy could reject a strategy that the
/// DeliveryProfile ledger accepted. The ledger rounds each capacity to the
/// nearest KB while the validator allows only 1e-6 MB of slack, so a
/// server whose capacity sits just below a reachable sum of item sizes can
/// be filled past it (Set #1 N=40, instance 27004 is one such case). Sums
/// of item sizes are multiples of their gcd, which bounds what a ledger
/// can fill. Such instances are a known core defect, not a property of
/// the workload, so the workloads draw the next instance instead; the
/// tests reproduce the defect through a pinned instance.
bool eq6_rounding_risk(const model::ProblemInstance& instance) {
  std::int64_t gcd_kb = 0;
  for (std::size_t k = 0; k < instance.data_count(); ++k) {
    gcd_kb = std::gcd(gcd_kb, core::mb_to_kb(instance.data(k).size_mb));
  }
  if (gcd_kb <= 0) return false;
  for (const model::EdgeServer& server : instance.servers()) {
    const std::int64_t fill_kb =
        core::mb_to_kb(server.storage_mb) / gcd_kb * gcd_kb;
    if (static_cast<double>(fill_kb) / 1024.0 > server.storage_mb + 1e-6) {
      return true;
    }
  }
  return false;
}

/// Builds the instance for `seed`, moving on to derived seeds (left in
/// `seed`) while the instance trips the Eq. 6 rounding defect; round-0
/// skips are counted as "inputs.skipped".
model::ProblemInstance build_instance(const model::InstanceBuilder& builder,
                                      std::uint64_t& seed, Values& exact,
                                      bool record, SpanLog& spans) {
  const Scope scope(spans, "model.build");
  model::ProblemInstance instance = builder.build(seed);
  while (eq6_rounding_risk(instance)) {
    if (record) exact["inputs.skipped"] += 1.0;
    seed = mix64(seed);
    instance = builder.build(seed);
  }
  return instance;
}

/// Solves, evaluates and validates one strategy; failures land in `out`.
core::Strategy solve_checked(const core::Approach& approach,
                             const model::ProblemInstance& instance,
                             std::uint64_t rng_seed, const char* span_name,
                             core::StrategyMetrics& metrics, OpOutcome& out,
                             SpanLog& spans) {
  util::Rng rng(rng_seed);
  std::optional<core::Strategy> strategy;
  {
    const Scope scope(spans, span_name);
    strategy.emplace(approach.solve(instance, rng));
  }
  {
    const Scope scope(spans, "core.evaluate");
    metrics = core::evaluate(instance, *strategy);
  }
  std::vector<std::string> problems;
  {
    const Scope scope(spans, "core.validate");
    problems = core::validate_strategy(instance, *strategy);
  }
  const std::string name = approach.name();
  for (const std::string& problem : problems) out.fail(name + ": " + problem);
  if (!strategy->game_converged) out.fail(name + ": game did not converge");
  return std::move(*strategy);
}

/// DES accounting holes fail the op.
void check_des(const des::FlowSimResult& result, OpOutcome& out) {
  const des::QosStats& qos = result.qos;
  if (qos.offered != qos.admitted + qos.shed + qos.rejected) {
    out.fail("des: offered != admitted + shed + rejected");
  }
  if (result.flows.size() != qos.offered) {
    out.fail("des: flows.size() != offered");
  }
}

void record_des(const des::FlowSimResult& result, bool record,
                Values& exact, Values& work) {
  work["des.events"] += static_cast<double>(result.flows.size() +
                                            result.rate_recomputations);
  if (!record) return;
  exact["des.flows"] += static_cast<double>(result.flows.size());
  exact["des.rate_recomputations"] +=
      static_cast<double>(result.rate_recomputations);
  exact["des.retries"] += static_cast<double>(result.retry_count);
  exact["des.shed"] += static_cast<double>(result.qos.shed);
  exact["des.rejected"] += static_cast<double>(result.qos.rejected);
  exact["des.replays"] += 1.0;
  const double offered = static_cast<double>(result.qos.offered);
  exact["quality.goodput_frac"] +=
      offered > 0.0 ? static_cast<double>(result.qos.goodput_flows) / offered
                    : 1.0;
  exact["quality.flow_ms_p99"] += result.p99_duration_ms;
}

/// Turns the round-0 sums of per-replay quality values into means.
void average_des_quality(Values& exact) {
  const double replays = exact["des.replays"];
  if (replays <= 0.0) return;
  exact["quality.goodput_frac"] /= replays;
  exact["quality.flow_ms_p99"] /= replays;
}

core::IddeG make_idde_g() {
  core::IddeGOptions options;
  options.game.threads = 1;
  return core::IddeG(options);
}

// ---------------------------------------------------------------------------
// sweep-paper: the paper's own figure traffic.

class SweepPaper final : public Workload {
 public:
  explicit SweepPaper(const WorkloadOptions& options) : options_(options) {
    approaches_.push_back(std::make_unique<core::IddeG>(make_idde_g()));
    approaches_.push_back(std::make_unique<baselines::Saa>());
    approaches_.push_back(std::make_unique<baselines::Cdp>());
    approaches_.push_back(std::make_unique<baselines::DupG>(
        core::UpdateRule::kBestImprovement, 1));
  }

  OpOutcome setup(SpanLog& spans) override {
    exact_.clear();
    work_.clear();
    builders_.clear();
    labels_.clear();
    for (const sim::PaperSet& set : sim::paper_sets()) {
      for (const sim::SweepPoint& point : set.points) {
        builders_.emplace_back(point.params);
        labels_.push_back(set.name + " " + point.label);
      }
    }
    OpOutcome out;
    if (options_.pin_point >= static_cast<std::int64_t>(builders_.size())) {
      out.fail("pinned point out of range");
      return out;
    }
    // Warm-up: one op on the smallest point, so the timed loop starts with
    // code and allocator warm (its values are not recorded). Its instance
    // is the same for every seed, so set-up work does not vary by seed.
    run_point(0, kWarmUpInstanceSeed, kWarmUpOp, false, out, spans);
    return out;
  }

  OpOutcome run_op(std::uint64_t op, SpanLog& spans) override {
    OpOutcome out;
    if (options_.pin_point >= 0) {
      run_point(static_cast<std::size_t>(options_.pin_point),
                options_.pin_instance_seed, op, false, out, spans);
      return out;
    }
    const std::size_t point = static_cast<std::size_t>(op % builders_.size());
    run_point(point, derive_seed(options_.seed, op / builders_.size(), point),
              op, op < round_size(), out, spans);
    if (op + 1 == round_size()) {
      const double ops = static_cast<double>(round_size());
      exact_["quality.l_avg_ms"] = exact_["IDDE-G.l_avg_ms"] / ops;
      exact_["quality.r_avg_mbps"] = exact_["IDDE-G.r_avg_mbps"] / ops;
    }
    return out;
  }

  [[nodiscard]] std::size_t round_size() const override {
    return options_.pin_point >= 0 ? 1 : builders_.size();
  }

 private:
  static constexpr std::uint64_t kWarmUpOp = ~0ULL;
  static constexpr std::uint64_t kWarmUpInstanceSeed = 1;

  /// One op: build point `point` from `seed` (the input filter stays off
  /// when `seed` is pinned), then solve, evaluate and validate with each
  /// approach. Round-0 ops add their values to exact_ when `record`.
  void run_point(std::size_t point, std::uint64_t seed, std::uint64_t op,
                 bool record, OpOutcome& out, SpanLog& spans) {
    std::optional<model::ProblemInstance> instance;
    if (options_.pin_point >= 0) {
      const Scope scope(spans, "model.build");
      instance.emplace(builders_[point].build(seed));
    } else {
      instance.emplace(
          build_instance(builders_[point], seed, exact_, record, spans));
    }
    const std::size_t failures_before = out.failures.size();
    for (std::size_t a = 0; a < approaches_.size(); ++a) {
      const core::Approach& approach = *approaches_[a];
      core::StrategyMetrics metrics;
      const core::Strategy strategy = solve_checked(
          approach, *instance, derive_seed(options_.seed, 0xa99, op * 8 + a),
          a == 0 ? "core.solve" : "baselines.solve", metrics, out, spans);
      if (!record) continue;
      const std::string prefix = approach.name() + ".";
      exact_[prefix + "l_avg_ms"] += metrics.avg_latency_ms;
      exact_[prefix + "r_avg_mbps"] += metrics.avg_rate_mbps;
      exact_[prefix + "placements"] += static_cast<double>(metrics.placements);
      exact_[prefix + "allocated_users"] +=
          static_cast<double>(metrics.allocated_users);
      exact_[prefix + "game_moves"] += static_cast<double>(strategy.game_moves);
      exact_[prefix + "game_rounds"] +=
          static_cast<double>(strategy.game_rounds);
    }
    for (std::size_t f = failures_before; f < out.failures.size(); ++f) {
      out.failures[f] = labels_[point] + " instance " + std::to_string(seed) +
                        ": " + out.failures[f];
    }
  }

  WorkloadOptions options_;
  std::vector<core::ApproachPtr> approaches_;
  std::vector<model::InstanceBuilder> builders_;
  std::vector<std::string> labels_;
};

// ---------------------------------------------------------------------------
// metro-pipeline: the idde_tool gen -> solve -> eval -> replay journey at the
// 500/8000 rung, in-process.

constexpr const char* kMetroScenario =
    R"({"server_count":500,"user_count":8000,)"
    R"("eua":{"area_side_m":4000,"server_count":500,"user_count":8000}})";
// Same server density (31 per km^2) on a smaller square.
constexpr const char* kMetroShortScenario =
    R"({"server_count":60,"user_count":960,)"
    R"("eua":{"area_side_m":1386,"server_count":60,"user_count":960}})";

// Every op runs the same rung instance (builder seed 1). Instances of this
// scenario differ up to 5x in burst-replay cost, and a run fits only ~5
// ops, so with seed-derived instances a run's figure would be a draw of
// instance costs as much as a measurement. sweep-paper covers instance
// diversity.
constexpr std::uint64_t kMetroInstanceSeed = 1;

class MetroPipeline final : public Workload {
 public:
  explicit MetroPipeline(const WorkloadOptions& options)
      : options_(options), idde_g_(make_idde_g()) {}

  OpOutcome setup(SpanLog& spans) override {
    builder_.emplace(sim::params_from_string(
        options_.short_mode ? kMetroShortScenario : kMetroScenario));
    // Warm-up: one short-scenario journey, so the timed loop starts with
    // code and allocator warm. Its values are dropped below.
    const model::InstanceBuilder warm_up(
        sim::params_from_string(kMetroShortScenario));
    OpOutcome out;
    journey(warm_up, derive_seed(options_.seed, 0x3a3, 0), false, out, spans);
    exact_.clear();
    work_.clear();
    return out;
  }

  OpOutcome run_op(std::uint64_t op, SpanLog& spans) override {
    OpOutcome out;
    journey(*builder_, derive_seed(options_.seed, 0xa99, op), op < round_size(),
            out, spans);
    return out;
  }

  [[nodiscard]] std::size_t round_size() const override { return 1; }

 private:
  /// gen -> write -> read -> solve -> evaluate -> validate -> burst replay.
  /// Round-0 values land in exact_ when `record`; work_ counts every op.
  void journey(const model::InstanceBuilder& builder, std::uint64_t rng_seed,
               bool record, OpOutcome& out, SpanLog& spans) {
    const model::InstanceParams& params = builder.params();
    std::string text;
    {
      std::uint64_t seed = kMetroInstanceSeed;
      const model::ProblemInstance built =
          build_instance(builder, seed, exact_, record, spans);
      const Scope scope(spans, "model.write");
      text = model::instance_to_string(built);
    }
    std::optional<model::ProblemInstance> instance;
    {
      const Scope scope(spans, "model.read");
      instance.emplace(model::instance_from_string(text));
    }
    if (instance->server_count() != params.server_count ||
        instance->user_count() != params.user_count ||
        instance->data_count() != params.data_count) {
      out.fail("model: instance shape changed across write/read");
    }
    if (record) {
      exact_["model.bytes"] = static_cast<double>(text.size());
      exact_["model.users"] = static_cast<double>(instance->user_count());
    }
    text = std::string();  // the parsed instance is all later steps need

    core::StrategyMetrics metrics;
    const core::Strategy strategy = solve_checked(
        idde_g_, *instance, rng_seed, "core.solve", metrics, out, spans);
    des::FlowSimOptions burst;
    burst.arrival_window_s = 0.0;
    util::Rng rng(mix64(rng_seed));
    std::optional<des::FlowSimResult> replay;
    {
      const Scope scope(spans, "des.run");
      replay.emplace(des::FlowLevelSimulator(*instance, burst).run(strategy, rng));
    }
    check_des(*replay, out);
    record_des(*replay, record, exact_, work_);
    if (record) {
      exact_["quality.l_avg_ms"] = metrics.avg_latency_ms;
      exact_["quality.r_avg_mbps"] = metrics.avg_rate_mbps;
      exact_["IDDE-G.placements"] = static_cast<double>(metrics.placements);
      exact_["IDDE-G.game_moves"] = static_cast<double>(strategy.game_moves);
      exact_["IDDE-G.game_rounds"] = static_cast<double>(strategy.game_rounds);
      exact_["des.makespan_s"] = replay->makespan_s;
      exact_["des.mean_duration_ms"] = replay->mean_duration_ms;
      average_des_quality(exact_);
    }
  }

  WorkloadOptions options_;
  core::IddeG idde_g_;
  std::optional<model::InstanceBuilder> builder_;
};

// ---------------------------------------------------------------------------
// City scale (125 servers / 816 users, K = 12) — the whole EUA layout pool.

model::InstanceParams city_params(bool short_mode) {
  model::InstanceParams params = sim::paper_default_params();
  if (!short_mode) {
    params.server_count = 125;
    params.user_count = 816;
    params.data_count = 12;
  }
  return params;
}

// ---------------------------------------------------------------------------
// replay-chaos and serve-city each run a panel of independent seeds side by
// side. The same replay kind costs up to 2x more on one city instance than
// on another, and a run sees only its own seed's inputs, so the panel
// keeps a run's figure from hinging on one instance or trajectory.

std::size_t panel_size(bool short_mode) { return short_mode ? 2 : 8; }

// ---------------------------------------------------------------------------
// replay-chaos: DES replays of solved city strategies.

class ReplayChaos final : public Workload {
 public:
  explicit ReplayChaos(const WorkloadOptions& options)
      : options_(options), idde_g_(make_idde_g()) {}

  OpOutcome setup(SpanLog& spans) override {
    exact_.clear();
    work_.clear();
    instances_.clear();
    strategies_.clear();
    const model::InstanceBuilder builder(city_params(options_.short_mode));
    OpOutcome out;
    const std::size_t panel = panel_size(options_.short_mode);
    for (std::size_t p = 0; p < panel; ++p) {
      std::uint64_t seed = derive_seed(options_.seed, 0xc17, p);
      instances_.push_back(build_instance(builder, seed, exact_, true, spans));
      core::StrategyMetrics metrics;
      strategies_.push_back(solve_checked(
          idde_g_, instances_.back(), derive_seed(options_.seed, 0xa99, p),
          "core.solve", metrics, out, spans));
      const double share = 1.0 / static_cast<double>(panel);
      exact_["quality.l_avg_ms"] += metrics.avg_latency_ms * share;
      exact_["quality.r_avg_mbps"] += metrics.avg_rate_mbps * share;
      exact_["IDDE-G.placements"] += static_cast<double>(metrics.placements);
      exact_["IDDE-G.game_moves"] +=
          static_cast<double>(strategies_.back().game_moves);
    }
    return out;
  }

  /// Ops cycle through the four replay kinds of one panel instance, then
  /// move on to the next instance.
  OpOutcome run_op(std::uint64_t op, SpanLog& spans) override {
    const bool record = op < round_size();
    const std::uint64_t seed = derive_seed(options_.seed, 0x4e9, op);
    const std::size_t kind = op % 4;
    const std::size_t member = (op / 4) % instances_.size();
    const model::ProblemInstance& instance = instances_[member];
    des::FlowSimOptions options;
    fault::FaultPlan plan;
    qos::QosConfig qos;
    util::Rng rng(seed);
    if (kind == 1) {
      // Faults only: arrivals spread over the fault horizon so epochs
      // actually cut through flows.
      const Scope scope(spans, "fault.plan");
      plan = fault::FaultPlan::generate(instance, sim::chaos_fault_profile(),
                                        seed);
      options.fault_plan = &plan;
      options.arrival_window_s = 10.0;
    } else if (kind >= 2) {
      // Chaos: faults + overload + breakers, wired as sim::run_overload_cell
      // does, so the plan draw is its own span.
      qos = sim::chaos_qos_config(kind == 2 ? 4.0 : 10.0,
                                  qos::SheddingPolicy::kDeadlineAware, 0.1);
      const Scope scope(spans, "fault.plan");
      plan = fault::FaultPlan::generate(instance, sim::chaos_fault_profile(),
                                        seed ^ 0x4a17);
      options.fault_plan = &plan;
      options.qos = &qos;
      rng = util::Rng(seed ^ 0x10adULL);
    }
    std::optional<des::FlowSimResult> result;
    {
      const Scope scope(spans, "des.run");
      result.emplace(des::FlowLevelSimulator(instance, options)
                         .run(strategies_[member], rng));
    }
    OpOutcome out;
    check_des(*result, out);
    record_des(*result, record, exact_, work_);
    if (record) {
      const std::string prefix = "replay" + std::to_string(kind) + ".";
      exact_[prefix + "offered"] += static_cast<double>(result->qos.offered);
      exact_[prefix + "goodput_flows"] +=
          static_cast<double>(result->qos.goodput_flows);
      exact_[prefix + "breaker_opens"] +=
          static_cast<double>(result->qos.breaker_opens);
      exact_[prefix + "p99_ms"] += result->p99_duration_ms;
      exact_[prefix + "makespan_s"] += result->makespan_s;
    }
    if (op + 1 == round_size()) average_des_quality(exact_);
    return out;
  }

  [[nodiscard]] std::size_t round_size() const override {
    return 4 * panel_size(options_.short_mode);
  }

 private:
  WorkloadOptions options_;
  core::IddeG idde_g_;
  std::vector<model::ProblemInstance> instances_;
  std::vector<core::Strategy> strategies_;
};

// ---------------------------------------------------------------------------
// serve-city: online controllers, one tick of one controller per op.

class ServeCity final : public Workload {
 public:
  explicit ServeCity(const WorkloadOptions& options) : options_(options) {
    // ext_serve's "steady" scenario at city scale.
    config_.base = city_params(false);
    if (options.short_mode) {
      config_.base.server_count = 20;
      config_.base.user_count = 120;
      config_.base.data_count = 6;
    }
    config_.tick_seconds = 1.0;
    config_.churn.arrival_rate_hz = 1.0 / 60.0;
    config_.churn.mean_session_s = 120.0;
    config_.churn.initial_online_fraction = 0.9;
    config_.sigma_refresh_period_ticks = 20;
    // Fixed horizon, independent of how many ticks a run gets through, so
    // the fault schedule is a function of the seed alone.
    config_.faults.horizon_s = 3600.0;
    config_.faults.server_mtbf_s = 150.0;
    config_.faults.server_mttr_s = 10.0;
    config_.solver_threads = 1;
  }

  OpOutcome setup(SpanLog& spans) override {
    exact_.clear();
    work_.clear();
    controllers_.clear();
    OpOutcome out;
    for (std::size_t p = 0; p < panel_size(options_.short_mode); ++p) {
      {
        const Scope scope(spans, "serve.init");
        controllers_.push_back(std::make_unique<serve::ServeController>(
            config_, derive_seed(options_.seed, 0x5e7e, p)));
      }
      check_allocation(*controllers_.back(), out, spans);
    }
    return out;
  }

  /// Ops tick the panel's controllers in turn.
  OpOutcome run_op(std::uint64_t op, SpanLog& spans) override {
    serve::ServeController& controller =
        *controllers_[op % controllers_.size()];
    std::optional<serve::TickReport> report;
    {
      const Scope scope(spans, "serve.tick");
      report.emplace(controller.tick());
    }
    work_["serve.events"] += static_cast<double>(report->events);
    OpOutcome out;
    check_allocation(controller, out, spans);
    if (report->backlog > config_.backlog_capacity) {
      out.fail("serve: backlog " + std::to_string(report->backlog) +
               " over capacity");
    }
    if (op + 1 == round_size()) record_round0();
    return out;
  }

  /// 50 ticks per controller (10 in short mode).
  [[nodiscard]] std::size_t round_size() const override {
    return panel_size(options_.short_mode) * (options_.short_mode ? 10 : 50);
  }

 private:
  /// Eq. 1 and channel ranges of the live allocation (sigma is internal to
  /// the controller and audited by its own checkpoint validation).
  static void check_allocation(const serve::ServeController& controller,
                               OpOutcome& out, SpanLog& spans) {
    const Scope scope(spans, "core.validate");
    const model::ProblemInstance& instance = controller.instance();
    const core::Strategy allocation_only(controller.allocation(),
                                         core::DeliveryProfile(instance));
    for (const std::string& problem :
         core::validate_strategy(instance, allocation_only)) {
      out.fail("serve: " + problem);
    }
  }

  /// Panel totals after round 0; the trajectory hashes are folded in panel
  /// order.
  void record_round0() {
    std::uint64_t hash = 0;
    double ticks = 0.0;
    double degraded = 0.0;
    for (const auto& controller : controllers_) {
      const serve::ServeStatus& status = controller->status();
      ticks += static_cast<double>(status.ticks);
      degraded += static_cast<double>(status.degraded_ticks);
      exact_["serve.events"] += static_cast<double>(status.events_total);
      exact_["serve.repairs"] += static_cast<double>(status.repairs_total);
      exact_["serve.repair_rounds"] +=
          static_cast<double>(status.repair_rounds_total);
      exact_["serve.repair_moves"] +=
          static_cast<double>(status.repair_moves_total);
      exact_["serve.backlog_peak"] = std::max(
          exact_["serve.backlog_peak"], static_cast<double>(status.backlog_peak));
      exact_["serve.shed"] += static_cast<double>(status.shed_total);
      exact_["serve.watchdog_strikes"] +=
          static_cast<double>(status.watchdog_strikes);
      exact_["serve.breaker_trips"] += static_cast<double>(status.breaker_trips);
      exact_["serve.sigma_placements"] +=
          static_cast<double>(controller->sigma_placements());
      exact_["quality.r_avg_mbps"] +=
          core::average_data_rate_mbps(controller->instance(),
                                       controller->allocation()) /
          static_cast<double>(controllers_.size());
      hash = mix64(hash ^ controller->trajectory_hash());
    }
    exact_["serve.ticks"] = ticks;
    exact_["serve.hash_hi"] = static_cast<double>(hash >> 32);
    exact_["serve.hash_lo"] = static_cast<double>(hash & 0xffffffffULL);
    exact_["quality.degraded_tick_frac"] = degraded / ticks;
  }

  WorkloadOptions options_;
  serve::ServeConfig config_;
  std::vector<std::unique_ptr<serve::ServeController>> controllers_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "sweep-paper") return std::make_unique<SweepPaper>(options);
  if (name == "metro-pipeline") return std::make_unique<MetroPipeline>(options);
  if (name == "replay-chaos") return std::make_unique<ReplayChaos>(options);
  if (name == "serve-city") return std::make_unique<ServeCity>(options);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
