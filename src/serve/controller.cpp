#include "serve/controller.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/delivery.hpp"
#include "core/game.hpp"
#include "core/idde_g.hpp"
#include "core/potential.hpp"
#include "core/strategy_io.hpp"
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

/// Pass as a word's bound to skip the range check.
constexpr std::size_t kNoBound = static_cast<std::size_t>(-1);

template <class Int>
Int decode_word(const util::Json& value, std::size_t bound,
                std::string_view what) {
  const std::uint64_t word = hex_to_u64(value.as_string(), what);
  if (bound != kNoBound && word >= bound) {
    throw util::JsonError(util::format("{}: index {} out of range [0, {})",
                                       what, word, bound));
  }
  return static_cast<Int>(word);
}

/// The cells of one flat hex array, written or read in order.
template <bool Reads>
class Cells {
 public:
  using Array =
      std::conditional_t<Reads, const util::JsonArray, util::JsonArray>;

  Cells(Array& array, std::string what)
      : array_(&array), what_(std::move(what)) {}

  template <class Int>
  void word(Int& value, std::size_t bound = kNoBound) {
    if constexpr (Reads) {
      value = decode_word<Int>(take(), bound, what_);
    } else {
      array_->emplace_back(u64_to_hex(static_cast<std::uint64_t>(value)));
    }
  }
  template <class Double>
  void bits(Double& value, util::Domain domain) {
    if constexpr (Reads) {
      value = util::check_domain(bits_to_double(take(), what_), domain, what_);
    } else {
      array_->push_back(double_to_bits(value));
    }
  }

  [[nodiscard]] bool done() const { return next_ == array_->size(); }
  void finish() const {
    if (!done()) {
      throw util::JsonError(util::format("{}: too many values", what_));
    }
  }

 private:
  const util::Json& take() {
    if (done()) {
      throw util::JsonError(util::format("{}: too few values", what_));
    }
    return (*array_)[next_++];
  }

  Array* array_;
  std::string what_;
  std::size_t next_ = 0;
};

/// The checkpoint's codecs, each one encoding in both directions.
/// ServeController::walk_state names every field once — key, encoding and
/// bound — and runs over a StateIo<false> (checkpoint) or a StateIo<true>
/// (restore, which applies each bound as it decodes). Encodings:
///  - word: a u64 (or an enum) as 16 hex digits, below `bound` if given;
///  - bits: a double's bit pattern, inside its Domain;
///  - flag: a JSON bool;
///  - mask: a string of '0'/'1', one per element, through `flag_of`;
///  - table/list: a flat hex array of records whose cells `visit` names in
///    order; a table keeps the reader's container length, a list sets it.
template <bool Reads>
class StateIo {
 public:
  static constexpr bool kReads = Reads;
  using Node = std::conditional_t<Reads, const util::Json, util::JsonObject>;

  StateIo(Node& node, std::string what)
      : node_(&node), what_(std::move(what)) {}

  [[nodiscard]] StateIo child(std::string_view key) const {
    if constexpr (Reads) {
      return StateIo(node_->at(key), path(key));
    } else {
      return StateIo(put(key, util::JsonObject{}).as_object(), {});
    }
  }
  template <class Int>
  void word(std::string_view key, Int& value,
            std::size_t bound = kNoBound) const {
    if constexpr (Reads) {
      value = decode_word<Int>(node_->at(key), bound, path(key));
    } else {
      put(key, u64_to_hex(static_cast<std::uint64_t>(value)));
    }
  }
  template <class Bool>
  void flag(std::string_view key, Bool& value) const {
    if constexpr (Reads) {
      value = node_->at(key).as_bool();
    } else {
      put(key, value);
    }
  }
  template <class Double>
  void bits(std::string_view key, Double& value, util::Domain domain) const {
    if constexpr (Reads) {
      value = util::check_domain(bits_to_double(node_->at(key), path(key)),
                                 domain, path(key));
    } else {
      put(key, double_to_bits(value));
    }
  }
  template <class Seq, class FlagOf>
  void mask(std::string_view key, Seq& seq, FlagOf flag_of) const {
    if constexpr (Reads) {
      const std::string& text = node_->at(key).as_string();
      if (text.size() != seq.size() ||
          text.find_first_not_of("01") != std::string::npos) {
        throw util::JsonError(util::format(
            "{}: expected {} flags of 0/1", path(key), seq.size()));
      }
      for (std::size_t i = 0; i < seq.size(); ++i) {
        flag_of(seq, i) = text[i] == '1';
      }
    } else {
      std::string text(seq.size(), '0');
      for (std::size_t i = 0; i < seq.size(); ++i) {
        if (flag_of(seq, i)) text[i] = '1';
      }
      put(key, std::move(text));
    }
  }
  template <class Seq, class Visit>
  void table(std::string_view key, Seq& seq, Visit visit) const {
    if constexpr (Reads) {
      Cells<true> cells(node_->at(key).as_array(), path(key));
      for (auto& record : seq) visit(record, cells);
      cells.finish();
    } else {
      util::JsonArray array;
      Cells<false> cells(array, {});
      for (auto& record : seq) visit(record, cells);
      put(key, std::move(array));
    }
  }
  template <class Seq, class Visit>
  void list(std::string_view key, Seq& seq, Visit visit) const {
    if constexpr (Reads) {
      Cells<true> cells(node_->at(key).as_array(), path(key));
      seq.clear();
      while (!cells.done()) visit(seq.emplace_back(), cells);
    } else {
      table(key, seq, visit);
    }
  }

 private:
  util::Json& put(std::string_view key, util::Json value) const {
    return node_->insert_or_assign(std::string(key), std::move(value))
        .first->second;
  }
  [[nodiscard]] std::string path(std::string_view key) const {
    return util::format("{}.{}", what_, key);
  }

  Node* node_;
  std::string what_;
};

/// Mask projection for a container of flags: element i itself.
constexpr auto kElement = [](auto& seq, std::size_t i) -> decltype(auto) {
  return seq[i];
};

/// An RNG stream: the xoshiro words and the Marsaglia spare normal.
template <class Io, class Rng>
void walk_rng(const Io& io, Rng& rng) {
  util::RngState state = rng.state();
  io.table("words", state.words, [](auto& word, auto& c) { c.word(word); });
  io.flag("spare", state.has_spare_normal);
  io.bits("spare_value", state.spare_normal, util::Domain::kAny);
  if constexpr (Io::kReads) rng.set_state(state);
}

/// An allocation as parallel server and channel lists (a kNone server is
/// unallocated). The reader range-checks every allocated slot and, when
/// `covered`, checks Eq. 1 against the instance's current coverage.
template <class Io, class Allocation>
void walk_allocation(const Io& io, const model::ProblemInstance& instance,
                     std::string_view server_key,
                     std::string_view channel_key, Allocation& allocation,
                     bool covered) {
  const std::size_t channels = instance.radio_env().channels_per_server;
  io.table(server_key, allocation,
           [](auto& slot, auto& c) { c.word(slot.server); });
  io.table(channel_key, allocation,
           [&](auto& slot, auto& c) { c.word(slot.channel, channels); });
  if constexpr (Io::kReads) {
    for (std::size_t j = 0; j < allocation.size(); ++j) {
      core::ChannelSlot& slot = allocation[j];
      if (!slot.allocated()) {
        slot = core::kUnallocated;
      } else if (slot.server >= instance.server_count()) {
        throw util::JsonError(util::format(
            "checkpoint {}: server out of range for user {}", server_key, j));
      } else if (covered) {
        core::require_coverage(instance, j, slot.server);
      }
    }
  }
}

/// A sigma as parallel server and item lists, item-major with ascending
/// hosts. The reader rebuilds it through core::delivery_from_placements.
template <class Io, class Sigma>
void walk_sigma(const Io& io, const model::ProblemInstance& instance,
                std::string_view server_key, std::string_view item_key,
                Sigma& sigma) {
  std::vector<std::pair<std::size_t, std::size_t>> placements;
  for (std::size_t k = 0; k < sigma.data_count(); ++k) {
    for (const std::size_t host : sigma.hosts(k)) {
      placements.emplace_back(host, k);
    }
  }
  io.list(server_key, placements,
          [](auto& placement, auto& c) { c.word(placement.first); });
  io.table(item_key, placements,
           [](auto& placement, auto& c) { c.word(placement.second); });
  if constexpr (Io::kReads) {
    sigma = core::delivery_from_placements(instance, sigma.shape(),
                                           placements);
  }
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

template <class Self, class Io>
void ServeController::walk_state(Self& self, const Io& io) {
  // The guard comes first: a snapshot of another (config, seed) is refused
  // before any of its state is read.
  const std::uint64_t expected = self.guard_hash();
  std::uint64_t guard = expected;
  io.word("guard", guard);
  if (guard != expected) {
    throw util::JsonError(
        "checkpoint: config/seed mismatch (guard hash differs)");
  }
  io.word("tick", self.tick_);
  io.word("hash", self.trajectory_hash_);
  if constexpr (Io::kReads) {
    // Availability is derived, never stored: the plan is a pure function
    // of (config, seed), so the mask at the restored tick matches.
    self.plan_.server_up_mask(
        self.instance_.server_count(),
        static_cast<double>(self.tick_) * self.config_.tick_seconds,
        self.up_mask_);
    self.prev_up_mask_ = self.up_mask_;
  }

  const Io rng = io.child("rng");
  walk_rng(rng.child("walk"), self.walk_rng_);
  walk_rng(rng.child("churn"), self.churn_rng_);
  walk_rng(rng.child("solve"), self.solve_rng_);

  // A non-finite position would reach the coverage grid's cell index, and
  // a zero or negative speed would stall the walk: the domains refuse both.
  const Io mobility = io.child("mobility");
  std::vector<geo::Point> positions = self.mobility_.positions();
  std::vector<dynamic::RandomWaypointModel::WalkState> walks =
      self.mobility_.walks();
  double distance = self.mobility_.total_distance_m();
  mobility.table("positions", positions, [](auto& p, auto& c) {
    c.bits(p.x, util::Domain::kFinite);
    c.bits(p.y, util::Domain::kFinite);
  });
  mobility.table("walks", walks, [](auto& walk, auto& c) {
    c.bits(walk.waypoint.x, util::Domain::kFinite);
    c.bits(walk.waypoint.y, util::Domain::kFinite);
    c.bits(walk.speed_mps, util::Domain::kPositive);
    c.bits(walk.pause_left_s, util::Domain::kNonNegative);
  });
  mobility.bits("distance", distance, util::Domain::kNonNegative);
  if constexpr (Io::kReads) {
    self.mobility_.restore_state(std::move(positions), std::move(walks),
                                 distance);
    // Coverage follows the restored walk before the allocation's Eq. 1
    // check reads it.
    self.instance_.set_user_positions(self.mobility_.positions(),
                                      self.pathloss_);
  }

  std::vector<bool> online = self.churn_.mask();
  io.mask("churn_mask", online, kElement);
  if constexpr (Io::kReads) self.churn_.restore_mask(std::move(online));

  // Health plane (gray failures). The degradation plan itself is derived;
  // only the tracker's evidence and the demotion mask are state.
  const Io health = io.child("health");
  std::vector<core::ServerHealth> trackers = self.health_.state();
  health.table("ewma", trackers, [](auto& h, auto& c) {
    c.bits(h.ewma_inflation, util::Domain::kNonNegative);
  });
  health.table("legs", trackers, [](auto& h, auto& c) { c.word(h.legs); });
  health.table("losses", trackers,
               [](auto& h, auto& c) { c.word(h.losses); });
  health.mask("demoted", trackers, [](auto& seq, std::size_t i) -> auto& {
    return seq[i].demoted;
  });
  health.mask("gray_mask", self.gray_mask_, kElement);
  if constexpr (Io::kReads) self.health_.restore_state(std::move(trackers));

  // The LKG allocation is exempt from Eq. 1: restore_lkg sanitises it
  // against whatever world it is restored into.
  walk_allocation(io, self.instance_, "alloc_server", "alloc_channel",
                  self.allocation_, true);
  walk_allocation(io, self.instance_, "lkg_alloc_server", "lkg_alloc_channel",
                  self.lkg_allocation_, false);
  walk_sigma(io, self.instance_, "sigma_server", "sigma_item", self.sigma_);
  walk_sigma(io, self.instance_, "lkg_sigma_server", "lkg_sigma_item",
             self.lkg_sigma_);
  // The recorded headroom is derived state: it must be the rebuilt
  // ledger's bits exactly, or the snapshot contradicts itself.
  std::vector<std::uint64_t> headroom(self.sigma_.server_count());
  for (std::size_t i = 0; i < headroom.size(); ++i) {
    headroom[i] = std::bit_cast<std::uint64_t>(self.sigma_.free_mb(i));
  }
  std::vector<std::uint64_t> recorded = headroom;
  io.table("sigma_free_mb", recorded,
           [](auto& bits, auto& c) { c.word(bits); });
  if (recorded != headroom) {
    throw util::JsonError(
        "checkpoint: sigma free_mb contradicts the placements");
  }

  io.list("backlog", self.backlog_, [](auto& task, auto& c) {
    c.word(task.kind, static_cast<std::size_t>(RepairKind::kSigma) + 1);
    c.word(task.deadline_tick);
    c.word(task.attempts);
  });
  if (Io::kReads && self.backlog_.size() > self.config_.backlog_capacity) {
    throw util::JsonError("checkpoint: backlog exceeds configured capacity");
  }

  const Io watchdog = io.child("watchdog");
  watchdog.word("strikes", self.strikes_);
  watchdog.word("cooldown_left", self.cooldown_left_);
  watchdog.flag("breaker_open", self.breaker_open_);
  watchdog.flag("half_open", self.half_open_);
  watchdog.flag("equilibrium_clean", self.equilibrium_clean_);
  watchdog.flag("sigma_clean", self.sigma_clean_);

  const Io retry = io.child("retry");
  double tokens = self.retry_.tokens();
  std::size_t denied = self.retry_.denied();
  retry.bits("tokens", tokens, util::Domain::kNonNegative);
  retry.word("denied", denied);
  if constexpr (Io::kReads) self.retry_.restore(tokens, denied);

  const Io counters = io.child("counters");
  auto& status = self.status_;
  counters.word("ticks", status.ticks);
  counters.word("events_total", status.events_total);
  counters.word("repairs_total", status.repairs_total);
  counters.word("repair_rounds_total", status.repair_rounds_total);
  counters.word("repair_moves_total", status.repair_moves_total);
  counters.word("degraded_ticks", status.degraded_ticks);
  counters.word("backlog_peak", status.backlog_peak);
  counters.word("shed_total", status.shed_total);
  counters.word("potential_checks", status.potential_checks);
  counters.word("watchdog_strikes", status.watchdog_strikes);
  counters.word("breaker_trips", status.breaker_trips);
  counters.word("lkg_restores", status.lkg_restores);
  counters.word("recovery_ticks", status.recovery_ticks);

  if constexpr (Io::kReads) self.events_.clear();
}

std::string ServeController::checkpoint(int indent) const {
  util::JsonObject root;
  walk_state(*this, StateIo<false>(root, {}));
  return seal_checkpoint(util::Json(std::move(root)), indent);
}

void ServeController::restore(std::string_view checkpoint_text) {
  const util::Json payload = open_checkpoint(checkpoint_text);
  walk_state(*this, StateIo<true>(payload, "checkpoint"));
}

}  // namespace idde::serve
