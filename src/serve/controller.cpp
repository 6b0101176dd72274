#include "serve/controller.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/delivery.hpp"
#include "core/game.hpp"
#include "core/idde_g.hpp"
#include "core/potential.hpp"
#include "geo/bbox.hpp"
#include "obs/obs.hpp"
#include "serve/checkpoint.hpp"
#include "util/assert.hpp"
#include "util/format.hpp"

namespace idde::serve {

namespace {

/// Stream salt + ids for the controller's independent RNG streams.
constexpr std::uint64_t kServeSeedSalt = 0x5e12e5e12e5e12e5ULL;
constexpr std::uint64_t kFaultSeedSalt = 0xfa017fa017ULL;
constexpr std::uint64_t kGraySeedSalt = 0x96a7fa5a17ULL;
constexpr std::uint64_t kWalkStream = 1;
constexpr std::uint64_t kChurnStream = 2;
constexpr std::uint64_t kSolveStream = 3;

fault::FaultPlan make_plan(const model::ProblemInstance& base,
                           const ServeConfig& config, std::uint64_t seed) {
  fault::FaultPlan plan =
      fault::FaultPlan::generate(base, config.faults, seed ^ kFaultSeedSalt);
  if (config.flash_failure_tick > 0 && config.flash_failure_fraction > 0.0) {
    // The injected schedule would collide with randomly drawn server
    // downtime; chaos studies run one or the other.
    IDDE_EXPECTS(config.faults.server_mtbf_s <= 0.0);
    IDDE_EXPECTS(config.flash_failure_fraction <= 1.0);
    IDDE_EXPECTS(config.flash_failure_duration_ticks > 0);
    const double start = static_cast<double>(config.flash_failure_tick) *
                         config.tick_seconds;
    const double end =
        start + static_cast<double>(config.flash_failure_duration_ticks) *
                    config.tick_seconds;
    const auto victims = static_cast<std::size_t>(
        std::floor(config.flash_failure_fraction *
                   static_cast<double>(base.server_count())));
    for (std::size_t i = 0; i < victims; ++i) {
      plan.add_server_downtime(i, fault::Interval{start, end});
    }
  }
  return plan;
}

util::Json rng_to_json(const util::Rng& rng) {
  const util::RngState state = rng.state();
  util::JsonArray words;
  for (const std::uint64_t word : state.words) {
    words.emplace_back(u64_to_hex(word));
  }
  util::JsonObject object;
  object.emplace("words", std::move(words));
  object.emplace("spare", state.has_spare_normal);
  object.emplace("spare_value", double_to_bits(state.spare_normal));
  return object;
}

void rng_from_json(const util::Json& value, std::string_view what,
                   util::Rng& rng) {
  util::RngState state;
  const util::JsonArray& words = value.at("words").as_array();
  if (words.size() != state.words.size()) {
    throw util::JsonError(util::format("{}: expected 4 state words", what));
  }
  for (std::size_t i = 0; i < state.words.size(); ++i) {
    state.words[i] = hex_to_u64(words[i].as_string(), what);
  }
  state.has_spare_normal = value.at("spare").as_bool();
  state.spare_normal = bits_to_double(value.at("spare_value"), what);
  rng.set_state(state);
}

/// Decodes a hex array into size_t values, each checked against `bound`
/// (pass kNoBound to skip the range check).
constexpr std::size_t kNoBound = static_cast<std::size_t>(-1);

std::vector<std::size_t> indices_from_json(const util::Json& value,
                                           std::size_t bound,
                                           std::string_view what) {
  const util::JsonArray& array = value.as_array();
  std::vector<std::size_t> out;
  out.reserve(array.size());
  for (const util::Json& element : array) {
    const auto index =
        static_cast<std::size_t>(hex_to_u64(element.as_string(), what));
    if (bound != kNoBound && index >= bound) {
      throw util::JsonError(
          util::format("{}: index {} out of range [0, {})", what, index,
                       bound));
    }
    out.push_back(index);
  }
  return out;
}

/// Writes a sigma's placements as parallel server and item index lists,
/// item-major with ascending hosts.
void sigma_to_json(const core::DeliveryProfile& sigma, const char* server_key,
                   const char* item_key, util::JsonObject& root) {
  util::JsonArray servers;
  util::JsonArray items;
  servers.reserve(sigma.placement_count());
  items.reserve(sigma.placement_count());
  for (std::size_t k = 0; k < sigma.data_count(); ++k) {
    for (const std::size_t host : sigma.hosts(k)) {
      servers.emplace_back(u64_to_hex(host));
      items.emplace_back(u64_to_hex(k));
    }
  }
  root.emplace(server_key, std::move(servers));
  root.emplace(item_key, std::move(items));
}

std::vector<double> doubles_from_json(const util::Json& value,
                                      std::string_view what) {
  const util::JsonArray& array = value.as_array();
  std::vector<double> out;
  out.reserve(array.size());
  for (const util::Json& element : array) {
    out.push_back(bits_to_double(element, what));
  }
  return out;
}

}  // namespace

ServeController::ServeController(ServeConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      seed_(seed),
      instance_(model::make_instance(config_.base, seed)),
      pathloss_(config_.base.pathloss_eta, config_.base.pathloss_exponent),
      plan_(make_plan(instance_, config_, seed)),
      gray_plan_(fault::DegradationPlan::generate(
          instance_, config_.degradation, seed ^ kGraySeedSalt)),
      health_(instance_.server_count(), config_.health),
      walk_rng_(util::Rng(seed ^ kServeSeedSalt).fork(kWalkStream)),
      churn_rng_(util::Rng(seed ^ kServeSeedSalt).fork(kChurnStream)),
      solve_rng_(util::Rng(seed ^ kServeSeedSalt).fork(kSolveStream)),
      mobility_(dynamic::user_positions(instance_),
                geo::BoundingBox::square(config_.base.eua.area_side_m),
                config_.mobility, walk_rng_),
      churn_(instance_.user_count(),
             config_.churn_enabled ? config_.churn : dynamic::ChurnParams{},
             churn_rng_),
      retry_(config_.retry),
      sigma_(instance_),
      planner_(instance_),
      lkg_sigma_(instance_),
      trajectory_hash_(kFnvOffsetBasis) {
  IDDE_EXPECTS(config_.tick_seconds > 0.0);
  IDDE_EXPECTS(config_.repair_rounds_per_event > 0);
  IDDE_EXPECTS(config_.repair_placements_per_event > 0);
  IDDE_EXPECTS(config_.backlog_capacity > 0);
  IDDE_EXPECTS(config_.watchdog_strike_limit > 0);

  plan_.server_up_mask(instance_.server_count(), 0.0, up_mask_);
  prev_up_mask_ = up_mask_;
  gray_mask_.assign(instance_.server_count(), 0);

  // Initial solve at t = 0, always with the production rule — an injected
  // chaos rule (kCycleProbe) applies to *repairs*, which is what the
  // watchdog protects; starting from garbage would test nothing.
  core::IddeGOptions options;
  options.game.threads = config_.solver_threads;
  std::vector<std::vector<std::size_t>> candidates;
  if (config_.churn_enabled) {
    candidates.resize(instance_.user_count());
    for (std::size_t j = 0; j < instance_.user_count(); ++j) {
      if (churn_.online(j)) candidates[j] = instance_.covering_servers(j);
    }
    options.game.candidate_servers = &candidates;
  }
  core::Strategy strategy =
      core::IddeG(options).solve(instance_, solve_rng_);
  allocation_ = std::move(strategy.allocation);
  sigma_ = std::move(strategy.delivery);
  lkg_allocation_ = allocation_;
  lkg_sigma_ = sigma_;
}

TickReport ServeController::tick() {
  ++tick_;
  ++status_.ticks;
  const double t = static_cast<double>(tick_) * config_.tick_seconds;
  TickReport report;
  report.tick = tick_;
  IDDE_OBS_SPAN("serve.tick");
  last_repair_.valid = false;  // the world moves below

  {
    IDDE_OBS_SPAN("serve.world");
    mobility_.step(config_.tick_seconds, walk_rng_);
    instance_.set_user_positions(mobility_.positions(), pathloss_);
  }
  derive_events(t);
  report.events = events_.size();
  status_.events_total += events_.size();

  // Bookkeeping first (the world must be consistent before any repair
  // runs), then one budgeted repair dispatch per event.
  for (const Event& event : events_) {
    retry_.on_fresh_arrival();
    apply_bookkeeping(event);
  }
  for (const Event& event : events_) dispatch_repairs(event, report);

  drain_backlog(report);

  if (breaker_open_ && cooldown_left_ > 0) {
    --cooldown_left_;
    if (cooldown_left_ == 0) half_open_ = true;
  }

  report.backlog = backlog_.size();
  status_.backlog_peak = std::max(status_.backlog_peak, backlog_.size());
  report.breaker_open = breaker_open_;
  report.degraded = breaker_open_ || !equilibrium_clean_ || !sigma_clean_ ||
                    !backlog_.empty();
  if (report.degraded) ++status_.degraded_ticks;
  if (config_.flash_failure_tick > 0 && status_.recovery_ticks == 0 &&
      tick_ >= config_.flash_failure_tick && !report.degraded) {
    status_.recovery_ticks = tick_ - config_.flash_failure_tick + 1;
  }

  IDDE_OBS_COUNT("serve.ticks_total", 1);
  IDDE_OBS_COUNT("serve.events_total", report.events);
  IDDE_OBS_COUNT("serve.repairs_total", report.repairs);
  IDDE_OBS_COUNT("serve.shed_total", report.shed);
  if (report.degraded) IDDE_OBS_COUNT("serve.degraded_ticks_total", 1);
  IDDE_OBS_GAUGE_SET("serve.backlog_depth", report.backlog);
  IDDE_OBS_HISTOGRAM("serve.tick_repair_rounds", report.repair_rounds);

  fold_tick_hash();
  prev_up_mask_ = up_mask_;
  return report;
}

void ServeController::derive_events(double t) {
  events_.clear();
  // Availability is piecewise-constant between the plan's epoch
  // boundaries, so the mask only needs rebuilding when a boundary falls
  // inside this tick — the same epoch view fault::FaultInjector slices on.
  if (plan_.availability_changed_between(t - config_.tick_seconds, t)) {
    plan_.server_up_mask(instance_.server_count(), t, up_mask_);
  }
  for (std::size_t i = 0; i < up_mask_.size(); ++i) {
    if (prev_up_mask_[i] != 0 && up_mask_[i] == 0) {
      events_.push_back(Event{EventKind::kServerDown, i});
    } else if (prev_up_mask_[i] == 0 && up_mask_[i] != 0) {
      events_.push_back(Event{EventKind::kServerUp, i});
    }
  }
  if (!gray_plan_.inert()) {
    // Feed the tracker from the degradation schedule: the plan's latency
    // multiplier at time t *is* the observed/expected inflation of a leg
    // served now, and a non-zero loss rate counts as a lost leg. The
    // hysteretic demotion latch then drives gray/recovered events exactly
    // like the up-mask diff drives down/up events.
    for (std::size_t i = 0; i < up_mask_.size(); ++i) {
      health_.record_leg(i, 1.0, gray_plan_.latency_multiplier(i, t));
      if (gray_plan_.loss_prob(i, t) > 0.0) health_.record_loss(i);
      const bool gray = health_.demoted(i);
      if (gray && gray_mask_[i] == 0) {
        gray_mask_[i] = 1;
        events_.push_back(Event{EventKind::kServerGray, i});
      } else if (!gray && gray_mask_[i] != 0) {
        gray_mask_[i] = 0;
        events_.push_back(Event{EventKind::kServerRecovered, i});
      }
    }
  }
  if (config_.churn_enabled) {
    const std::vector<bool> before = churn_.mask();
    churn_.step(config_.tick_seconds, churn_rng_);
    for (std::size_t j = 0; j < before.size(); ++j) {
      if (before[j] == churn_.online(j)) continue;
      events_.push_back(Event{
          before[j] ? EventKind::kUserLeave : EventKind::kUserJoin, j});
    }
  }
  // Stranded movers: still allocated to a live server they no longer
  // reach. (Users on dead servers are covered by kServerDown.)
  const model::ProblemInstance& inst = instance_;
  for (std::size_t j = 0; j < allocation_.size(); ++j) {
    if (!allocation_[j].allocated()) continue;
    const std::size_t server = allocation_[j].server;
    if (up_mask_[server] == 0) continue;
    const auto& covering = inst.covering_servers(j);
    if (!std::binary_search(covering.begin(), covering.end(), server)) {
      events_.push_back(Event{EventKind::kUserStranded, j});
    }
  }
  if (config_.sigma_refresh_period_ticks > 0 &&
      tick_ % config_.sigma_refresh_period_ticks == 0) {
    events_.push_back(Event{EventKind::kSigmaRefresh, 0});
  }
}

void ServeController::apply_bookkeeping(const Event& event) {
  switch (event.kind) {
    case EventKind::kServerDown:
      for (core::ChannelSlot& slot : allocation_) {
        if (slot.allocated() && slot.server == event.subject) {
          slot = core::kUnallocated;
        }
      }
      sigma_clean_ = false;  // replicas on the dead server are gone
      equilibrium_clean_ = false;
      break;
    case EventKind::kServerUp:
      sigma_clean_ = false;  // returned capacity is unexploited
      equilibrium_clean_ = false;
      break;
    case EventKind::kUserLeave:
    case EventKind::kUserStranded:
      allocation_[event.subject] = core::kUnallocated;
      equilibrium_clean_ = false;
      break;
    case EventKind::kUserJoin:
      equilibrium_clean_ = false;
      break;
    case EventKind::kSigmaRefresh:
      sigma_clean_ = false;
      break;
    case EventKind::kServerGray:
      // The server still holds its replicas, but every leg through it now
      // pays the inflation — sigma should route around it.
      sigma_clean_ = false;
      break;
    case EventKind::kServerRecovered:
      sigma_clean_ = false;  // readmitted capacity is unexploited
      break;
  }
}

void ServeController::dispatch_repairs(const Event& event,
                                       TickReport& report) {
  bool wants_equilibrium = false;
  bool wants_sigma = false;
  switch (event.kind) {
    case EventKind::kServerDown:
    case EventKind::kServerUp:
      wants_equilibrium = true;
      wants_sigma = true;
      break;
    case EventKind::kUserLeave:
    case EventKind::kUserJoin:
    case EventKind::kUserStranded:
      wants_equilibrium = true;
      break;
    case EventKind::kSigmaRefresh:
      wants_sigma = true;
      break;
    case EventKind::kServerGray:
    case EventKind::kServerRecovered:
      // Gray transitions get the same budgeted sigma heal a crash gets;
      // the allocation plane is untouched (the server is still serving).
      wants_sigma = true;
      break;
  }
  if (breaker_open_ && !half_open_) {
    // Cooling down: bank the work instead of running it.
    if (wants_equilibrium) enqueue_repair(RepairKind::kEquilibrium, 0, report);
    if (wants_sigma) enqueue_repair(RepairKind::kSigma, 0, report);
    return;
  }
  if (wants_equilibrium && !run_equilibrium_repair(report)) {
    enqueue_repair(RepairKind::kEquilibrium, 0, report);
  }
  if (wants_sigma && !(breaker_open_ && !half_open_) &&
      !run_sigma_repair(report)) {
    enqueue_repair(RepairKind::kSigma, 0, report);
  }
}

void ServeController::build_candidates() {
  const model::ProblemInstance& inst = instance_;
  candidates_.resize(inst.user_count());
  for (std::size_t j = 0; j < candidates_.size(); ++j) {
    candidates_[j].clear();
    if (!user_online(j)) continue;
    for (const std::size_t i : inst.covering_servers(j)) {
      if (up_mask_[i] != 0) candidates_[j].push_back(i);
    }
  }
}

bool ServeController::run_equilibrium_repair(TickReport& report) {
  IDDE_OBS_SPAN("serve.repair.equilibrium");
  const model::ProblemInstance& inst = instance_;
  RepairRecord& result = last_repair_;
  if (result.valid && result.start == allocation_) {
    // Best-response dynamics are deterministic in their start profile, and
    // nothing they read has changed since the record was made this tick.
    IDDE_OBS_COUNT("serve.equilibrium_replays_total", 1);
  } else {
    build_candidates();
    core::GameOptions options;
    options.rule = config_.repair_rule;
    options.max_rounds = config_.repair_rounds_per_event;
    options.budgeted = true;
    options.threads = config_.solver_threads;
    options.candidate_servers = &candidates_;
    core::IddeUGame game(inst, options);
    core::GameResult solved = game.run_from(allocation_);
    result.valid = true;
    result.start = allocation_;
    result.allocation = std::move(solved.allocation);
    result.rounds = solved.rounds;
    result.moves = solved.moves;
    result.converged = solved.converged;
    IDDE_OBS_COUNT("serve.equilibrium_solves_total", 1);
  }
  ++status_.repairs_total;
  ++report.repairs;
  status_.repair_rounds_total += result.rounds;
  status_.repair_moves_total += result.moves;
  report.repair_rounds += result.rounds;
  IDDE_OBS_HISTOGRAM("serve.repair_rounds", result.rounds);

  if (result.moves >= config_.watchdog_suspect_moves && !result.converged) {
    // Suspiciously busy and still not done — cycling dynamics look
    // exactly like this. The potential (Eq. 13) is the arbiter, but only
    // *strict descent* convicts: the heterogeneous-gain game is not an
    // exact potential game, so honest budget-capped repairs occasionally
    // leave the potential flat or slightly perturbed.
    ++status_.potential_checks;
    const double potential_before = core::potential(inst, result.start);
    const double potential_after =
        core::potential(inst, result.allocation);
    if (potential_after < potential_before - 1e-9) {
      ++status_.watchdog_strikes;
      ++strikes_;
      equilibrium_clean_ = false;
      IDDE_OBS_COUNT("serve.watchdog_strikes_total", 1);
      // The repair's moves are bogus: discard them (allocation_ stays at
      // the start). A strike in the half-open probe re-trips immediately.
      if (half_open_ || strikes_ >= config_.watchdog_strike_limit) {
        trip_breaker();
      }
      return false;
    }
  }
  allocation_ = result.allocation;
  if (!result.converged) {
    equilibrium_clean_ = false;
    return false;
  }
  equilibrium_clean_ = true;
  strikes_ = 0;
  if (breaker_open_) {
    breaker_open_ = false;
    half_open_ = false;
    cooldown_left_ = 0;
  }
  maybe_update_lkg();
  return true;
}

bool ServeController::run_sigma_repair(TickReport& report) {
  IDDE_OBS_SPAN("serve.repair.sigma");
  const std::size_t budget = config_.repair_placements_per_event;
  // With an active gray plane, demoted servers are excluded from the heal
  // exactly like dead ones: new placements avoid them and their replicas
  // stop counting as coverage. The mask itself is (up && !gray).
  const std::vector<std::uint8_t>* mask = &up_mask_;
  std::vector<std::uint8_t> healthy;
  if (!gray_plan_.inert()) {
    healthy.resize(up_mask_.size());
    for (std::size_t i = 0; i < up_mask_.size(); ++i) {
      healthy[i] =
          static_cast<std::uint8_t>(up_mask_[i] != 0 && gray_mask_[i] == 0);
    }
    mask = &healthy;
  }
  core::RepairResult result =
      planner_.replan(allocation_, sigma_, *mask, {}, true, budget);
  ++status_.repairs_total;
  ++report.repairs;
  sigma_ = std::move(result.delivery);
  // Exhausting the placement budget means the lazy greedy may still hold
  // profitable candidates — another pass is owed.
  sigma_clean_ = result.repair_placements < budget;
  if (sigma_clean_) maybe_update_lkg();
  return sigma_clean_;
}

void ServeController::enqueue_repair(RepairKind kind, std::size_t attempts,
                                     TickReport& report) {
  if (attempts > 0 && !retry_.try_spend_retry()) {
    // Retry budget exhausted: the continuation is dropped; the system
    // stays degraded until a fresh event funds another attempt.
    return;
  }
  if (backlog_.size() >= config_.backlog_capacity) {
    // Deadline-aware shedding: the queued task nearest to expiry has the
    // least remaining chance of running in time — drop it.
    const auto victim = std::min_element(
        backlog_.begin(), backlog_.end(),
        [](const RepairTask& a, const RepairTask& b) {
          return a.deadline_tick < b.deadline_tick;
        });
    backlog_.erase(victim);
    ++status_.shed_total;
    ++report.shed;
  }
  backlog_.push_back(RepairTask{
      kind, tick_ + config_.backlog_deadline_ticks, attempts});
}

void ServeController::drain_backlog(TickReport& report) {
  if (breaker_open_ && !half_open_) return;  // cooling down
  std::size_t drained = 0;
  while (!backlog_.empty() && drained < config_.backlog_drain_per_tick) {
    const RepairTask task = backlog_.front();
    backlog_.pop_front();
    if (task.deadline_tick < tick_) {
      // Expired in the queue: shedding is free, does not consume drain
      // budget.
      ++status_.shed_total;
      ++report.shed;
      continue;
    }
    ++drained;
    const bool healed = task.kind == RepairKind::kEquilibrium
                            ? run_equilibrium_repair(report)
                            : run_sigma_repair(report);
    if (!healed) {
      enqueue_repair(task.kind, task.attempts + 1, report);
      if (breaker_open_ && !half_open_) break;  // tripped mid-drain
    }
  }
}

void ServeController::trip_breaker() {
  breaker_open_ = true;
  half_open_ = false;
  cooldown_left_ = std::max<std::size_t>(1, config_.watchdog_cooldown_ticks);
  strikes_ = 0;
  ++status_.breaker_trips;
  IDDE_OBS_COUNT("serve.breaker_trips_total", 1);
  restore_lkg();
}

void ServeController::restore_lkg() {
  ++status_.lkg_restores;
  const model::ProblemInstance& inst = instance_;
  allocation_ = lkg_allocation_;
  // The LKG was recorded against a possibly different world — sanitise:
  // offline users, dead servers and out-of-reach slots drop to cloud.
  for (std::size_t j = 0; j < allocation_.size(); ++j) {
    if (!allocation_[j].allocated()) continue;
    const std::size_t server = allocation_[j].server;
    const auto& covering = inst.covering_servers(j);
    if (!user_online(j) || up_mask_[server] == 0 ||
        !std::binary_search(covering.begin(), covering.end(), server)) {
      allocation_[j] = core::kUnallocated;
    }
  }
  sigma_ = core::DeliveryProfile(inst);
  for (std::size_t item = 0; item < inst.data_count(); ++item) {
    for (const std::size_t server : lkg_sigma_.hosts(item)) {
      if (up_mask_[server] != 0) sigma_.place(server, item);
    }
  }
  // A sanitised fallback is valid but not an equilibrium for the current
  // world; both planes stay dirty until honest repairs re-converge.
  equilibrium_clean_ = false;
  sigma_clean_ = false;
}

void ServeController::maybe_update_lkg() {
  if (!equilibrium_clean_ || !sigma_clean_ || breaker_open_) return;
  lkg_allocation_ = allocation_;
  lkg_sigma_ = sigma_;
}

bool ServeController::user_online(std::size_t user) const {
  return !config_.churn_enabled || churn_.online(user);
}

void ServeController::fold_tick_hash() {
  std::uint64_t hash = trajectory_hash_;
  hash = fnv1a_fold(hash, tick_);
  for (const Event& event : events_) {
    hash = fnv1a_fold(hash, static_cast<std::uint64_t>(event.kind));
    hash = fnv1a_fold(hash, event.subject);
  }
  for (const core::ChannelSlot& slot : allocation_) {
    hash = fnv1a_fold(hash, slot.server);
    hash = fnv1a_fold(hash, slot.channel);
  }
  for (std::size_t k = 0; k < sigma_.data_count(); ++k) {
    for (const std::size_t host : sigma_.hosts(k)) {
      hash = fnv1a_fold(hash, host);
      hash = fnv1a_fold(hash, k);
    }
  }
  for (std::size_t i = 0; i < sigma_.server_count(); ++i) {
    hash = fnv1a_fold(hash, std::bit_cast<std::uint64_t>(sigma_.free_mb(i)));
  }
  hash = fnv1a_fold(hash, backlog_.size());
  hash = fnv1a_fold(hash,
                    static_cast<std::uint64_t>(breaker_open_ ? 1 : 0) |
                        (half_open_ ? 2 : 0) |
                        (equilibrium_clean_ ? 4 : 0) |
                        (sigma_clean_ ? 8 : 0));
  hash = fnv1a_fold(hash, strikes_);
  hash = fnv1a_fold(hash, cooldown_left_);
  // Gated on plan activity so inert-config trajectories keep their
  // pre-gray hashes bit-identically.
  if (!gray_plan_.inert()) {
    for (const std::uint8_t gray : gray_mask_) {
      hash = fnv1a_fold(hash, gray);
    }
  }
  trajectory_hash_ = hash;
}

std::uint64_t ServeController::guard_hash() const {
  std::uint64_t hash = kFnvOffsetBasis;
  hash = fnv1a_fold(hash, seed_);
  hash = fnv1a_fold(hash, instance_.user_count());
  hash = fnv1a_fold(hash, instance_.server_count());
  hash = fnv1a_fold(hash, instance_.data_count());
  hash = fnv1a_fold(hash, std::bit_cast<std::uint64_t>(config_.tick_seconds));
  hash = fnv1a_fold(hash, static_cast<std::uint64_t>(config_.repair_rule));
  hash = fnv1a_fold(hash, config_.repair_rounds_per_event);
  hash = fnv1a_fold(hash, config_.repair_placements_per_event);
  hash = fnv1a_fold(hash, config_.backlog_capacity);
  hash = fnv1a_fold(hash, config_.backlog_deadline_ticks);
  hash = fnv1a_fold(hash, config_.backlog_drain_per_tick);
  hash = fnv1a_fold(hash, config_.watchdog_suspect_moves);
  hash = fnv1a_fold(hash, config_.watchdog_strike_limit);
  hash = fnv1a_fold(hash, config_.watchdog_cooldown_ticks);
  hash = fnv1a_fold(hash, config_.sigma_refresh_period_ticks);
  hash = fnv1a_fold(hash, config_.flash_failure_tick);
  hash = fnv1a_fold(hash, config_.flash_failure_duration_ticks);
  hash = fnv1a_fold(hash, config_.churn_enabled ? 1 : 0);
  // Every event-source rate shapes the trajectory, so a checkpoint taken
  // under one fault/churn/mobility configuration must not restore into
  // another — the plans are regenerated from config on restore and would
  // silently diverge.
  const auto fold_bits = [&hash](double value) {
    hash = fnv1a_fold(hash, std::bit_cast<std::uint64_t>(value));
  };
  fold_bits(config_.faults.horizon_s);
  fold_bits(config_.faults.server_mtbf_s);
  fold_bits(config_.faults.server_mttr_s);
  fold_bits(config_.faults.link_mtbf_s);
  fold_bits(config_.faults.link_mttr_s);
  fold_bits(config_.faults.cloud_mtbf_s);
  fold_bits(config_.faults.cloud_mttr_s);
  fold_bits(config_.faults.replica_corruption_prob);
  fold_bits(config_.churn.arrival_rate_hz);
  fold_bits(config_.churn.mean_session_s);
  fold_bits(config_.churn.initial_online_fraction);
  fold_bits(config_.mobility.min_speed_mps);
  fold_bits(config_.mobility.max_speed_mps);
  fold_bits(config_.mobility.pause_seconds);
  fold_bits(config_.flash_failure_fraction);
  fold_bits(config_.degradation.horizon_s);
  fold_bits(config_.degradation.gray_fraction);
  fold_bits(config_.degradation.peak_multiplier_min);
  fold_bits(config_.degradation.peak_multiplier_max);
  fold_bits(config_.degradation.loss_prob_max);
  fold_bits(config_.degradation.onset_latest_s);
  fold_bits(config_.degradation.ramp_weight);
  fold_bits(config_.degradation.plateau_weight);
  fold_bits(config_.degradation.flap_weight);
  fold_bits(config_.degradation.ramp_s);
  hash = fnv1a_fold(hash, config_.degradation.ramp_steps);
  fold_bits(config_.degradation.plateau_s);
  fold_bits(config_.degradation.flap_period_s);
  fold_bits(config_.health.ewma_alpha);
  fold_bits(config_.health.demote_score);
  fold_bits(config_.health.recover_score);
  fold_bits(config_.health.loss_weight);
  hash = fnv1a_fold(hash, config_.health.min_samples);
  // The retry budget gates every backlog retry. Gated on activity, as
  // fold_tick_hash gates the gray mask, so inert-config checkpoints keep
  // their bytes.
  if (!config_.retry.inert()) {
    fold_bits(config_.retry.ratio);
    fold_bits(config_.retry.burst);
  }
  return hash;
}

std::string ServeController::checkpoint(int indent) const {
  util::JsonObject root;
  root.emplace("guard", u64_to_hex(guard_hash()));
  root.emplace("tick", u64_to_hex(tick_));
  root.emplace("hash", u64_to_hex(trajectory_hash_));

  util::JsonObject rng;
  rng.emplace("walk", rng_to_json(walk_rng_));
  rng.emplace("churn", rng_to_json(churn_rng_));
  rng.emplace("solve", rng_to_json(solve_rng_));
  root.emplace("rng", std::move(rng));

  util::JsonObject mobility;
  util::JsonArray positions;
  positions.reserve(mobility_.positions().size() * 2);
  for (const geo::Point& p : mobility_.positions()) {
    positions.push_back(double_to_bits(p.x));
    positions.push_back(double_to_bits(p.y));
  }
  mobility.emplace("positions", std::move(positions));
  util::JsonArray walks;
  walks.reserve(mobility_.walks().size() * 4);
  for (const dynamic::RandomWaypointModel::WalkState& walk :
       mobility_.walks()) {
    walks.push_back(double_to_bits(walk.waypoint.x));
    walks.push_back(double_to_bits(walk.waypoint.y));
    walks.push_back(double_to_bits(walk.speed_mps));
    walks.push_back(double_to_bits(walk.pause_left_s));
  }
  mobility.emplace("walks", std::move(walks));
  mobility.emplace("distance", double_to_bits(mobility_.total_distance_m()));
  root.emplace("mobility", std::move(mobility));

  std::string churn_mask(churn_.user_count(), '0');
  for (std::size_t j = 0; j < churn_.user_count(); ++j) {
    if (churn_.online(j)) churn_mask[j] = '1';
  }
  root.emplace("churn_mask", std::move(churn_mask));

  // Health plane (gray failures). The degradation plan itself is derived
  // (regenerated from config and seed); only the tracker's evidence and
  // the demotion mask are state.
  util::JsonObject health;
  util::JsonArray health_ewma;
  util::JsonArray health_legs;
  util::JsonArray health_losses;
  std::string demoted_mask(instance_.server_count(), '0');
  std::string gray_mask(instance_.server_count(), '0');
  for (std::size_t i = 0; i < instance_.server_count(); ++i) {
    const core::ServerHealth& h = health_.state()[i];
    health_ewma.push_back(double_to_bits(h.ewma_inflation));
    health_legs.emplace_back(u64_to_hex(h.legs));
    health_losses.emplace_back(u64_to_hex(h.losses));
    if (h.demoted) demoted_mask[i] = '1';
    if (gray_mask_[i] != 0) gray_mask[i] = '1';
  }
  health.emplace("ewma", std::move(health_ewma));
  health.emplace("legs", std::move(health_legs));
  health.emplace("losses", std::move(health_losses));
  health.emplace("demoted", std::move(demoted_mask));
  health.emplace("gray_mask", std::move(gray_mask));
  root.emplace("health", std::move(health));

  util::JsonArray alloc_server;
  util::JsonArray alloc_channel;
  for (const core::ChannelSlot& slot : allocation_) {
    alloc_server.emplace_back(u64_to_hex(slot.server));
    alloc_channel.emplace_back(u64_to_hex(slot.channel));
  }
  root.emplace("alloc_server", std::move(alloc_server));
  root.emplace("alloc_channel", std::move(alloc_channel));

  sigma_to_json(sigma_, "sigma_server", "sigma_item", root);
  util::JsonArray sigma_free_mb;
  sigma_free_mb.reserve(sigma_.server_count());
  for (std::size_t i = 0; i < sigma_.server_count(); ++i) {
    sigma_free_mb.push_back(double_to_bits(sigma_.free_mb(i)));
  }
  root.emplace("sigma_free_mb", std::move(sigma_free_mb));

  util::JsonArray lkg_alloc_server;
  util::JsonArray lkg_alloc_channel;
  for (const core::ChannelSlot& slot : lkg_allocation_) {
    lkg_alloc_server.emplace_back(u64_to_hex(slot.server));
    lkg_alloc_channel.emplace_back(u64_to_hex(slot.channel));
  }
  root.emplace("lkg_alloc_server", std::move(lkg_alloc_server));
  root.emplace("lkg_alloc_channel", std::move(lkg_alloc_channel));
  sigma_to_json(lkg_sigma_, "lkg_sigma_server", "lkg_sigma_item", root);

  util::JsonArray backlog;
  backlog.reserve(backlog_.size() * 3);
  for (const RepairTask& task : backlog_) {
    backlog.emplace_back(u64_to_hex(static_cast<std::uint64_t>(task.kind)));
    backlog.emplace_back(u64_to_hex(task.deadline_tick));
    backlog.emplace_back(u64_to_hex(task.attempts));
  }
  root.emplace("backlog", std::move(backlog));

  util::JsonObject watchdog;
  watchdog.emplace("strikes", u64_to_hex(strikes_));
  watchdog.emplace("cooldown_left", u64_to_hex(cooldown_left_));
  watchdog.emplace("breaker_open", breaker_open_);
  watchdog.emplace("half_open", half_open_);
  watchdog.emplace("equilibrium_clean", equilibrium_clean_);
  watchdog.emplace("sigma_clean", sigma_clean_);
  root.emplace("watchdog", std::move(watchdog));

  util::JsonObject retry;
  retry.emplace("tokens", double_to_bits(retry_.tokens()));
  retry.emplace("denied", u64_to_hex(retry_.denied()));
  root.emplace("retry", std::move(retry));

  util::JsonObject counters;
  counters.emplace("ticks", u64_to_hex(status_.ticks));
  counters.emplace("events_total", u64_to_hex(status_.events_total));
  counters.emplace("repairs_total", u64_to_hex(status_.repairs_total));
  counters.emplace("repair_rounds_total",
                   u64_to_hex(status_.repair_rounds_total));
  counters.emplace("repair_moves_total",
                   u64_to_hex(status_.repair_moves_total));
  counters.emplace("degraded_ticks", u64_to_hex(status_.degraded_ticks));
  counters.emplace("backlog_peak", u64_to_hex(status_.backlog_peak));
  counters.emplace("shed_total", u64_to_hex(status_.shed_total));
  counters.emplace("potential_checks", u64_to_hex(status_.potential_checks));
  counters.emplace("watchdog_strikes", u64_to_hex(status_.watchdog_strikes));
  counters.emplace("breaker_trips", u64_to_hex(status_.breaker_trips));
  counters.emplace("lkg_restores", u64_to_hex(status_.lkg_restores));
  counters.emplace("recovery_ticks", u64_to_hex(status_.recovery_ticks));
  root.emplace("counters", std::move(counters));

  return seal_checkpoint(util::Json(std::move(root)), indent);
}

core::DeliveryProfile ServeController::sigma_from_json(
    const util::Json& payload, std::string_view server_key,
    std::string_view item_key) const {
  const std::vector<std::size_t> servers =
      indices_from_json(payload.at(server_key), instance_.server_count(),
                        util::format("checkpoint {}", server_key));
  const std::vector<std::size_t> items =
      indices_from_json(payload.at(item_key), instance_.data_count(),
                        util::format("checkpoint {}", item_key));
  if (servers.size() != items.size()) {
    throw util::JsonError("checkpoint: sigma server/item length mismatch");
  }
  core::DeliveryProfile sigma(instance_);
  for (std::size_t idx = 0; idx < servers.size(); ++idx) {
    const std::size_t server = servers[idx];
    const std::size_t item = items[idx];
    if (sigma.placed(server, item)) {
      throw util::JsonError(util::format(
          "checkpoint: duplicate sigma placement ({}, {})", server, item));
    }
    if (!sigma.can_place(server, item)) {
      throw util::JsonError(util::format(
          "checkpoint: sigma placement ({}, {}) exceeds server storage",
          server, item));
    }
    sigma.place(server, item);
  }
  return sigma;
}

void ServeController::restore(std::string_view checkpoint_text) {
  const util::Json payload = open_checkpoint(checkpoint_text);
  if (hex_to_u64(payload.at("guard").as_string(), "checkpoint guard") !=
      guard_hash()) {
    throw util::JsonError(
        "checkpoint: config/seed mismatch (guard hash differs)");
  }
  const std::size_t user_count = instance_.user_count();
  const std::size_t server_count = instance_.server_count();
  const std::size_t channels = instance_.radio_env().channels_per_server;

  tick_ = hex_to_u64(payload.at("tick").as_string(), "checkpoint tick");
  trajectory_hash_ =
      hex_to_u64(payload.at("hash").as_string(), "checkpoint hash");

  const util::Json& rng = payload.at("rng");
  rng_from_json(rng.at("walk"), "checkpoint rng.walk", walk_rng_);
  rng_from_json(rng.at("churn"), "checkpoint rng.churn", churn_rng_);
  rng_from_json(rng.at("solve"), "checkpoint rng.solve", solve_rng_);

  const util::Json& mobility = payload.at("mobility");
  const std::vector<double> flat_positions =
      doubles_from_json(mobility.at("positions"), "checkpoint positions");
  const std::vector<double> flat_walks =
      doubles_from_json(mobility.at("walks"), "checkpoint walks");
  if (flat_positions.size() != user_count * 2 ||
      flat_walks.size() != user_count * 4) {
    throw util::JsonError("checkpoint: mobility state size mismatch");
  }
  std::vector<geo::Point> positions(user_count);
  std::vector<dynamic::RandomWaypointModel::WalkState> walks(user_count);
  // A non-finite position would reach the coverage grid's cell index, and
  // a zero or negative speed would stall the walk: reject both here.
  const auto finite = [](const geo::Point& p) {
    return std::isfinite(p.x) && std::isfinite(p.y);
  };
  for (std::size_t j = 0; j < user_count; ++j) {
    positions[j] = geo::Point{flat_positions[j * 2], flat_positions[j * 2 + 1]};
    walks[j].waypoint = geo::Point{flat_walks[j * 4], flat_walks[j * 4 + 1]};
    walks[j].speed_mps = flat_walks[j * 4 + 2];
    walks[j].pause_left_s = flat_walks[j * 4 + 3];
    if (!finite(positions[j]) || !finite(walks[j].waypoint)) {
      throw util::JsonError(util::format(
          "checkpoint: non-finite position or waypoint for user {}", j));
    }
    if (!std::isfinite(walks[j].speed_mps) || !(walks[j].speed_mps > 0.0)) {
      throw util::JsonError(util::format(
          "checkpoint: walk speed must be finite and > 0 for user {}", j));
    }
    if (!std::isfinite(walks[j].pause_left_s) ||
        !(walks[j].pause_left_s >= 0.0)) {
      throw util::JsonError(util::format(
          "checkpoint: walk pause must be finite and >= 0 for user {}", j));
    }
  }
  const double distance =
      bits_to_double(mobility.at("distance"), "checkpoint distance");
  if (!(distance >= 0.0)) {
    throw util::JsonError("checkpoint: negative walk distance");
  }
  mobility_.restore_state(std::move(positions), std::move(walks), distance);
  instance_.set_user_positions(mobility_.positions(), pathloss_);

  const std::string& mask_text = payload.at("churn_mask").as_string();
  if (mask_text.size() != user_count) {
    throw util::JsonError("checkpoint: churn mask size mismatch");
  }
  std::vector<bool> mask(user_count);
  for (std::size_t j = 0; j < user_count; ++j) {
    if (mask_text[j] != '0' && mask_text[j] != '1') {
      throw util::JsonError("checkpoint: churn mask must be 0/1");
    }
    mask[j] = mask_text[j] == '1';
  }
  churn_.restore_mask(std::move(mask));

  const util::Json& health = payload.at("health");
  const std::vector<double> health_ewma =
      doubles_from_json(health.at("ewma"), "checkpoint health ewma");
  const std::vector<std::size_t> health_legs = indices_from_json(
      health.at("legs"), kNoBound, "checkpoint health legs");
  const std::vector<std::size_t> health_losses = indices_from_json(
      health.at("losses"), kNoBound, "checkpoint health losses");
  const std::string& demoted_text = health.at("demoted").as_string();
  const std::string& gray_text = health.at("gray_mask").as_string();
  if (health_ewma.size() != server_count ||
      health_legs.size() != server_count ||
      health_losses.size() != server_count ||
      demoted_text.size() != server_count ||
      gray_text.size() != server_count) {
    throw util::JsonError("checkpoint: health state size mismatch");
  }
  std::vector<core::ServerHealth> health_state(server_count);
  for (std::size_t i = 0; i < server_count; ++i) {
    if (!std::isfinite(health_ewma[i]) || health_ewma[i] < 0.0) {
      throw util::JsonError(util::format(
          "checkpoint: health ewma out of range for server {}", i));
    }
    if ((demoted_text[i] != '0' && demoted_text[i] != '1') ||
        (gray_text[i] != '0' && gray_text[i] != '1')) {
      throw util::JsonError("checkpoint: health masks must be 0/1");
    }
    health_state[i].ewma_inflation = health_ewma[i];
    health_state[i].legs = health_legs[i];
    health_state[i].losses = health_losses[i];
    health_state[i].demoted = demoted_text[i] == '1';
  }
  health_.restore_state(std::move(health_state));
  gray_mask_.resize(server_count);
  for (std::size_t i = 0; i < server_count; ++i) {
    gray_mask_[i] = static_cast<std::uint8_t>(gray_text[i] == '1');
  }

  // Derived availability is regenerated, never stored: the plan is a pure
  // function of (config, seed), so the mask at the restored tick matches.
  plan_.server_up_mask(server_count,
                       static_cast<double>(tick_) * config_.tick_seconds,
                       up_mask_);
  prev_up_mask_ = up_mask_;

  const auto read_allocation =
      [&](std::string_view server_key, std::string_view channel_key,
          std::string_view what) {
        const std::vector<std::size_t> servers = indices_from_json(
            payload.at(server_key), kNoBound, what);
        const std::vector<std::size_t> slots = indices_from_json(
            payload.at(channel_key), kNoBound, what);
        if (servers.size() != user_count || slots.size() != user_count) {
          throw util::JsonError(
              util::format("{}: expected {} users", what, user_count));
        }
        core::AllocationProfile profile(user_count, core::kUnallocated);
        for (std::size_t j = 0; j < user_count; ++j) {
          if (servers[j] == core::ChannelSlot::kNone) continue;
          if (servers[j] >= server_count || slots[j] >= channels) {
            throw util::JsonError(
                util::format("{}: slot out of range for user {}", what, j));
          }
          profile[j] = core::ChannelSlot{servers[j], slots[j]};
        }
        return profile;
      };
  allocation_ = read_allocation("alloc_server", "alloc_channel",
                                "checkpoint allocation");
  lkg_allocation_ = read_allocation("lkg_alloc_server", "lkg_alloc_channel",
                                    "checkpoint lkg allocation");

  sigma_ = sigma_from_json(payload, "sigma_server", "sigma_item");
  // The recorded headroom is derived state: it must be the replayed
  // ledger's bits exactly, or the snapshot contradicts itself.
  const std::vector<double> sigma_free_mb = doubles_from_json(
      payload.at("sigma_free_mb"), "checkpoint sigma free_mb");
  if (sigma_free_mb.size() != server_count) {
    throw util::JsonError("checkpoint: sigma free_mb size mismatch");
  }
  for (std::size_t i = 0; i < server_count; ++i) {
    if (std::bit_cast<std::uint64_t>(sigma_free_mb[i]) !=
        std::bit_cast<std::uint64_t>(sigma_.free_mb(i))) {
      throw util::JsonError(util::format(
          "checkpoint: sigma free_mb of server {} contradicts its "
          "placements",
          i));
    }
  }
  lkg_sigma_ = sigma_from_json(payload, "lkg_sigma_server", "lkg_sigma_item");

  const util::JsonArray& backlog = payload.at("backlog").as_array();
  if (backlog.size() % 3 != 0) {
    throw util::JsonError("checkpoint: backlog must be (kind, deadline, "
                          "attempts) triples");
  }
  backlog_.clear();
  for (std::size_t idx = 0; idx < backlog.size(); idx += 3) {
    const std::uint64_t kind =
        hex_to_u64(backlog[idx].as_string(), "checkpoint backlog kind");
    if (kind > static_cast<std::uint64_t>(RepairKind::kSigma)) {
      throw util::JsonError("checkpoint: unknown backlog repair kind");
    }
    backlog_.push_back(RepairTask{
        static_cast<RepairKind>(kind),
        static_cast<std::size_t>(hex_to_u64(backlog[idx + 1].as_string(),
                                            "checkpoint backlog deadline")),
        static_cast<std::size_t>(hex_to_u64(backlog[idx + 2].as_string(),
                                            "checkpoint backlog attempts"))});
  }
  if (backlog_.size() > config_.backlog_capacity) {
    throw util::JsonError("checkpoint: backlog exceeds configured capacity");
  }

  const util::Json& watchdog = payload.at("watchdog");
  strikes_ = hex_to_u64(watchdog.at("strikes").as_string(),
                        "checkpoint strikes");
  cooldown_left_ = hex_to_u64(watchdog.at("cooldown_left").as_string(),
                              "checkpoint cooldown");
  breaker_open_ = watchdog.at("breaker_open").as_bool();
  half_open_ = watchdog.at("half_open").as_bool();
  equilibrium_clean_ = watchdog.at("equilibrium_clean").as_bool();
  sigma_clean_ = watchdog.at("sigma_clean").as_bool();

  const util::Json& retry = payload.at("retry");
  const double tokens = bits_to_double(retry.at("tokens"),
                                       "checkpoint retry tokens");
  if (!std::isfinite(tokens) || tokens < 0.0) {
    throw util::JsonError("checkpoint: retry tokens out of range");
  }
  retry_.restore(tokens, hex_to_u64(retry.at("denied").as_string(),
                                    "checkpoint retry denied"));

  const util::Json& counters = payload.at("counters");
  const auto counter = [&](std::string_view key) {
    return static_cast<std::size_t>(
        hex_to_u64(counters.at(key).as_string(), key));
  };
  status_.ticks = counter("ticks");
  status_.events_total = counter("events_total");
  status_.repairs_total = counter("repairs_total");
  status_.repair_rounds_total = counter("repair_rounds_total");
  status_.repair_moves_total = counter("repair_moves_total");
  status_.degraded_ticks = counter("degraded_ticks");
  status_.backlog_peak = counter("backlog_peak");
  status_.shed_total = counter("shed_total");
  status_.potential_checks = counter("potential_checks");
  status_.watchdog_strikes = counter("watchdog_strikes");
  status_.breaker_trips = counter("breaker_trips");
  status_.lkg_restores = counter("lkg_restores");
  status_.recovery_ticks = counter("recovery_ticks");

  events_.clear();
}

}  // namespace idde::serve
