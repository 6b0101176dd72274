// The DES engine (DESIGN.md §18): one event loop over legs for every
// combination of faults, admission control, gray failures and code shapes.
//
// Events are fresh arrivals, retries after backoff, and the end of a timed
// local service; they sit in one min-heap ordered by (time, kind, record),
// so runs are single-threaded, wall-clock free and bit-identical across
// hosts. Between events the routed legs drain at their max-min fair rates;
// the loop also stops at every edge-availability change of an active fault
// plan so in-flight legs can be checked against the new epoch.
#include "des/flow_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <span>

#include "des/fluid.hpp"
#include "fault/injector.hpp"
#include "net/shortest_path.hpp"
#include "obs/obs.hpp"
#include "qos/admission.hpp"
#include "qos/arrivals.hpp"
#include "qos/breaker.hpp"
#include "qos/retry_budget.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace idde::des {

namespace {

using detail::Leg;

/// A routed leg with at most this much left has landed (fp residue).
constexpr double kDrainedMb = 1e-9;

/// Event kinds, in tie-break order at equal times: releases run before
/// admissions so a slot freed at t is available to an arrival at t.
enum class EventKind : std::uint8_t {
  kLocalDone = 0,   ///< timed local service completed
  kLocalAbort = 1,  ///< local read failed (crash mid-service, bad checksum)
  kFresh = 2,
  kRetry = 3,
};

struct Event {
  double time = 0.0;
  EventKind kind = EventKind::kFresh;
  std::size_t record = 0;
};

struct EventLater {
  bool operator()(const Event& x, const Event& y) const {
    if (x.time != y.time) return x.time > y.time;
    if (x.kind != y.kind) return x.kind > y.kind;
    return x.record > y.record;
  }
};

/// `deadline_s` > 0 enables goodput/deadline accounting; `window_s` is the
/// offered-load period the rates are normalised by (0 = makespan).
/// `freeze_rounds` and `fluid_solves` are the run's water-filling round and
/// call totals (telemetry only).
void finalize(FlowSimResult& result, double deadline_s, double window_s,
              std::size_t freeze_rounds, std::size_t fluid_solves) {
  std::vector<double> durations_ms;
  durations_ms.reserve(result.flows.size());
  std::array<std::vector<double>, core::kFallbackTiers> tier_durations_ms;
  double makespan = 0.0;
  std::size_t first_try_primary = 0;
  double queue_wait_s_sum = 0.0;
  result.qos.offered = result.flows.size();
  for (FlowRecord& record : result.flows) {
    if (record.outcome == FlowOutcome::kShed) {
      ++result.qos.shed;
      continue;
    }
    if (record.outcome == FlowOutcome::kRejected) {
      ++result.qos.rejected;
      continue;
    }
    ++result.qos.admitted;
    const double duration_ms = record.duration_s() * 1e3;
    durations_ms.push_back(duration_ms);
    tier_durations_ms[static_cast<std::size_t>(record.tier)].push_back(
        duration_ms);
    makespan = std::max(makespan, record.completion_s);
    queue_wait_s_sum += record.queue_wait_s;
    if (record.local_hit) ++result.local_hits;
    if (record.from_cloud) ++result.cloud_fetches;
    if (record.forced_cloud) ++result.forced_cloud_fetches;
    result.retry_count += record.retries;
    ++result.tier_counts[static_cast<std::size_t>(record.tier)];
    if (record.tier == core::FallbackTier::kPrimary && record.retries == 0) {
      ++first_try_primary;
    }
    record.deadline_missed =
        deadline_s > 0.0 && record.duration_s() > deadline_s;
    if (record.deadline_missed) {
      ++result.qos.deadline_misses;
    } else {
      ++result.qos.goodput_flows;
    }
  }
  IDDE_ASSERT(result.qos.admitted + result.qos.shed + result.qos.rejected ==
                  result.qos.offered,
              "overload accounting leak: admitted + shed + rejected != "
              "offered");

  // Telemetry records the durations in flow order, before the sorts below.
  IDDE_OBS_COUNT("des.runs_total", 1);
  IDDE_OBS_COUNT("des.flows_total", result.flows.size());
  IDDE_OBS_COUNT("des.forced_cloud_total", result.forced_cloud_fetches);
  IDDE_OBS_COUNT("des.local_hits_total", result.local_hits);
  IDDE_OBS_COUNT("des.cloud_fetches_total", result.cloud_fetches);
  IDDE_OBS_COUNT("des.rate_recomputations_total", result.rate_recomputations);
  IDDE_OBS_COUNT("des.fluid_freeze_rounds_total", freeze_rounds);
  IDDE_OBS_COUNT("des.fluid_solves_total", fluid_solves);
  IDDE_OBS_COUNT("des.fluid_solves_skipped_total",
                 result.rate_recomputations - fluid_solves);
  IDDE_OBS_COUNT("des.loss_aborts_total", result.loss_aborts);
  IDDE_OBS_COUNT("qos.offered_total", result.qos.offered);
  IDDE_OBS_COUNT("qos.shed_total", result.qos.shed);
  IDDE_OBS_COUNT("qos.rejected_total", result.qos.rejected);
  IDDE_OBS_COUNT("qos.deadline_misses_total", result.qos.deadline_misses);
  IDDE_OBS_COUNT("qos.retries_denied_total", result.qos.retries_denied);
  IDDE_OBS_COUNT("qos.breaker_opens_total", result.qos.breaker_opens);
#if IDDE_OBS
  if (obs::enabled()) {
    obs::Histogram& duration =
        obs::MetricsRegistry::global().histogram("des.flow_duration_ms");
    for (const double ms : durations_ms) duration.record(ms);
    static constexpr const char* kTierHistograms[core::kFallbackTiers] = {
        "qos.tier_duration_ms.primary", "qos.tier_duration_ms.replica",
        "qos.tier_duration_ms.cloud"};
    for (std::size_t t = 0; t < core::kFallbackTiers; ++t) {
      if (tier_durations_ms[t].empty()) continue;
      obs::Histogram& tier_hist =
          obs::MetricsRegistry::global().histogram(kTierHistograms[t]);
      for (const double ms : tier_durations_ms[t]) tier_hist.record(ms);
    }
  }
#endif
  if (!durations_ms.empty()) {
    // The mean sums in flow order; every rank reads one sorted copy.
    result.mean_duration_ms = util::mean_of(durations_ms);
    std::sort(durations_ms.begin(), durations_ms.end());
    result.p95_duration_ms = util::percentile_sorted(durations_ms, 95.0);
    result.p99_duration_ms = util::percentile_sorted(durations_ms, 99.0);
    result.max_duration_ms = durations_ms.back();
    result.availability = static_cast<double>(first_try_primary) /
                          static_cast<double>(durations_ms.size());
    result.qos.mean_queue_wait_ms =
        queue_wait_s_sum / static_cast<double>(durations_ms.size()) * 1e3;
  }
  result.makespan_s = makespan;
  for (std::size_t t = 0; t < core::kFallbackTiers; ++t) {
    std::vector<double>& tier = tier_durations_ms[t];
    if (tier.empty()) continue;
    std::sort(tier.begin(), tier.end());
    result.qos.tier_p50_ms[t] = util::percentile_sorted(tier, 50.0);
    result.qos.tier_p99_ms[t] = util::percentile_sorted(tier, 99.0);
  }
  // Throughput rates are normalised by the offered-load window so they stay
  // comparable across load multipliers; makespan is the closed-loop proxy.
  const double period = window_s > 0.0 ? window_s : makespan;
  if (period > 0.0) {
    result.qos.goodput_rps =
        static_cast<double>(result.qos.goodput_flows) / period;
    result.qos.offered_rps =
        static_cast<double>(result.qos.offered) / period;
  }
}

}  // namespace

/// One replay: the per-run state and the event loop.
class FlowLevelSimulator::Replay {
 public:
  Replay(const FlowLevelSimulator& sim, const core::Strategy& strategy)
      : sim_(sim),
        instance_(*sim.instance_),
        options_(sim.options_),
        allocation_(strategy.allocation),
        collaborative_(strategy.collaborative_delivery),
        delivery_(strategy.delivery),
        legs_per_attempt_(strategy.delivery.shape().k),
        resolver_(instance_) {
    IDDE_EXPECTS(allocation_.size() == instance_.user_count());
    const FlowSimOptions& o = options_;
    if (o.fault_plan != nullptr && !o.fault_plan->inert()) {
      plan_ = o.fault_plan;
      injector_.emplace(instance_, *plan_);
    }
    if (o.qos != nullptr && !o.qos->inert()) qos_ = o.qos;
    if (o.degradation != nullptr && !o.degradation->inert()) {
      gray_ = o.degradation;
    }
    // Corrupt replicas: invisible to the resolver under admission control
    // (the checksum fails when the read completes — the failure class
    // breakers exist for), filtered out before resolution otherwise.
    const bool corruption =
        plan_ != nullptr && plan_->replica_corruption_prob() > 0.0;
    checksum_on_read_ = corruption && qos_ != nullptr;
    filter_corrupt_ = corruption && qos_ == nullptr;
    static_world_ = plan_ == nullptr && qos_ == nullptr && gray_ == nullptr;
    if (gray_ != nullptr && o.health_aware) {
      health_ = core::HealthTracker(instance_.server_count(), o.health);
      health_view_ = &health_;
    }
    if (qos_ != nullptr) {
      const qos::AdmissionConfig& admission = qos_->admission;
      slots_ = admission.service_slots;
      IDDE_EXPECTS(legs_per_attempt_ == 1 || slots_ == 0);
      deadline_aware_ =
          admission.policy == qos::SheddingPolicy::kDeadlineAware &&
          admission.deadline_s > 0.0;
      breakers_on_ = !qos_->breaker.inert();
      in_service_.assign(instance_.server_count(), 0);
      queues_.assign(instance_.server_count(),
                     qos::AdmissionQueue(admission));
      breakers_.assign(instance_.server_count(),
                       qos::CircuitBreaker(qos_->breaker));
      budget_.emplace(qos_->retry_budget);
    }
    capacities_.reserve(sim.links_.size());
    for (const Link& link : sim.links_) {
      capacities_.push_back(link.capacity_mbps);
    }
  }

  FlowSimResult run(util::Rng& rng) {
    generate_arrivals(rng);
    for (std::size_t r = 0; r < result_.flows.size(); ++r) {
      const double arrival = result_.flows[r].arrival_s;
      if (deadline_aware_) attempts_[r].estimate_s = fault_free_seconds(r);
      if (static_world_) {
        // Nothing here varies over time, so the source chosen now is the
        // one the attempt gets; requests that never touch a link complete
        // at generation instead of stepping the fluid loop.
        resolve(r, arrival);
        if (!touches_links(r)) {
          start(r, arrival);
          continue;
        }
      }
      events_.push(Event{arrival, EventKind::kFresh, r});
    }

    double now = 0.0;
    while (!active_.empty() || !events_.empty()) {
      if (active_.empty()) now = std::max(now, events_.top().time);
      while (!events_.empty() && events_.top().time <= now) {
        const Event event = events_.top();
        events_.pop();
        dispatch(event, now);
      }
      if (active_.empty()) continue;  // the next event re-anchors `now`

      // The solve reads only the legs' links and order and the constant
      // capacities, so while no leg joined or left, the rates it would
      // write are the ones the legs already hold.
      if (legs_changed_) {
        freeze_rounds_ +=
            detail::assign_max_min_rates(active_, capacities_, scratch_);
        ++fluid_solves_;
        legs_changed_ = false;
      }
      ++result_.rate_recomputations;

      double dt = std::numeric_limits<double>::infinity();
      for (const Leg& leg : active_) {
        IDDE_ASSERT(leg.rate_mbps > 0.0, "starved leg");
        dt = std::min(dt, leg.remaining_mb / (leg.rate_mbps * leg.rate_scale));
      }
      if (!events_.empty()) dt = std::min(dt, events_.top().time - now);
      bool epoch_event = false;
      if (plan_ != nullptr) {
        // `now` never goes back, so the boundary stays the next one until
        // `now` reaches it.
        if (now >= next_epoch_) {
          next_epoch_ = plan_->next_edge_change_after(now);
        }
        epoch_event = next_epoch_ - now <= dt;
        if (epoch_event) dt = next_epoch_ - now;
      }

      for (Leg& leg : active_) {
        leg.remaining_mb -= leg.rate_mbps * leg.rate_scale * dt;
      }
      now += dt;
      land_legs(now);
      if (epoch_event) abort_dead_legs(now);
    }

    double deadline_s = 0.0;
    double window_s = 0.0;
    if (qos_ != nullptr) {
      for (std::size_t i = 0; i < instance_.server_count(); ++i) {
        IDDE_ASSERT(queues_[i].empty(), "stuck admission queue at shutdown");
        IDDE_ASSERT(in_service_[i] == 0, "leaked service slot at shutdown");
      }
      result_.qos.retries_denied = budget_->denied();
      for (const qos::CircuitBreaker& breaker : breakers_) {
        result_.qos.breaker_opens += breaker.times_opened();
      }
      deadline_s = qos_->admission.deadline_s;
      window_s = qos_->arrivals.inert() ? options_.arrival_window_s
                                        : qos_->arrivals.window_s;
    }
    finalize(result_, deadline_s, window_s, freeze_rounds_, fluid_solves_);
    return std::move(result_);
  }

 private:
  /// Per-record state of the current attempt. Its edge sources live in
  /// source_ids_/source_s_ at [r * legs_per_attempt_, + sources).
  struct Attempt {
    double start_s = 0.0;
    double expected_s = 0.0;    ///< resolver seconds of the whole attempt
    double cloud_s = -1.0;      ///< cloud-leg seconds; < 0 = no cloud leg
    double cloud_done_s = 0.0;  ///< cloud-leg landing (start_s without one)
    double estimate_s = 0.0;    ///< fault-free Eq. 8, for deadline shedding
    std::size_t sources = 0;        ///< edge sources (local or routed)
    std::size_t legs_left = 0;      ///< routed legs still in flight
    std::size_t legs_launched = 0;  ///< loss-lottery index of the next leg
    bool holds_slot = false;
  };

  void generate_arrivals(util::Rng& rng) {
    std::vector<FlowRecord>& flows = result_.flows;
    if (qos_ != nullptr && !qos_->arrivals.inert()) {
      for (const qos::Arrival& arrival :
           qos::generate_arrivals(instance_, qos_->arrivals, rng)) {
        FlowRecord record;
        record.user = arrival.user;
        record.item = arrival.item;
        record.arrival_s = arrival.time_s;
        flows.push_back(record);
      }
    } else {
      // Replay: every (user, item) request once, user-major.
      for (std::size_t j = 0; j < instance_.user_count(); ++j) {
        for (const std::size_t k : instance_.requests().items_of(j)) {
          FlowRecord record;
          record.user = j;
          record.item = k;
          record.arrival_s = options_.arrival_window_s > 0.0
                                 ? rng.uniform(0.0, options_.arrival_window_s)
                                 : 0.0;
          flows.push_back(record);
        }
      }
    }
    attempts_.assign(flows.size(), Attempt{});
    source_ids_.assign(flows.size() * legs_per_attempt_, 0);
    source_s_.assign(flows.size() * legs_per_attempt_, 0.0);
  }

  [[nodiscard]] std::size_t serving_of(std::size_t r) const {
    const core::ChannelSlot slot = allocation_[result_.flows[r].user];
    return slot.allocated() ? slot.server : core::ChannelSlot::kNone;
  }

  [[nodiscard]] double item_mb(std::size_t r) const {
    return instance_.data(result_.flows[r].item).size_mb;
  }

  /// Size of one routed leg: one fragment (the whole item at k = 1).
  [[nodiscard]] double leg_mb(std::size_t r) const {
    return delivery_.placement_mb(result_.flows[r].item);
  }

  [[nodiscard]] std::span<const std::size_t> sources_of(std::size_t r) const {
    return {source_ids_.data() + r * legs_per_attempt_, attempts_[r].sources};
  }

  /// True when the resolved attempt has a routed leg.
  [[nodiscard]] bool touches_links(std::size_t r) const {
    const std::size_t serving = serving_of(r);
    const std::span<const std::size_t> sources = sources_of(r);
    return std::any_of(sources.begin(), sources.end(),
                       [&](std::size_t s) { return s != serving; });
  }

  [[nodiscard]] double cloud_done(double start_s, double seconds) const {
    return plan_ != nullptr ? plan_->cloud_completion(start_s, seconds)
                            : start_s + seconds;
  }

  [[nodiscard]] bool corrupt_read(std::size_t source, std::size_t r) const {
    return checksum_on_read_ &&
           plan_->replica_corrupted(source, result_.flows[r].item);
  }

  /// Retry/timeout caps: past them the edge is given up on.
  [[nodiscard]] bool over_caps(std::size_t r, double now) const {
    const FlowRecord& record = result_.flows[r];
    return record.retries > options_.max_retries ||
           now - record.arrival_s > options_.timeout_s;
  }

  /// Deadline-aware shedding: the optimistic estimate already misses.
  [[nodiscard]] bool unmeetable(std::size_t r, double now) const {
    return deadline_aware_ &&
           now + attempts_[r].estimate_s >
               result_.flows[r].arrival_s + qos_->admission.deadline_s;
  }

  /// Candidate hosts of `r`'s item (non-collaborative delivery keeps only
  /// the serving server) into reference_, minus the filtered corrupt
  /// replicas into eligible_.
  void collect_hosts(std::size_t r) {
    const std::size_t serving = serving_of(r);
    const std::size_t item = result_.flows[r].item;
    eligible_.clear();
    reference_.clear();
    for (const std::size_t host : delivery_.hosts(item)) {
      if (!collaborative_ && host != serving) continue;
      reference_.push_back(host);
      if (filter_corrupt_ && plan_->replica_corrupted(host, item)) continue;
      eligible_.push_back(host);
    }
  }

  /// Optimistic service estimate: the fault-free Eq. 8 seconds (plus the
  /// local service time when admission makes local hits non-free). A lower
  /// bound on any real completion, so deadline-aware shedding only drops
  /// requests that provably cannot make it. Uncounted: it is not a
  /// delivery.
  double fault_free_seconds(std::size_t r) {
    collect_hosts(r);
    double best = resolver_.estimate(request(r, reference_)).seconds;
    if (best <= 0.0 && slots_ > 0) {
      best = item_mb(r) * qos_->admission.local_service_s_per_mb;
    }
    return best;
  }

  /// Eq. 8 request of `r` over `hosts` in the fault-free world.
  [[nodiscard]] core::Eq8Request request(
      std::size_t r, std::span<const std::size_t> hosts) const {
    return {.hosts = hosts,
            .serving = serving_of(r),
            .item_mb = item_mb(r),
            .fragment_mb = leg_mb(r),
            .k = legs_per_attempt_};
  }

  /// Source selection against the world at `now`: the epoch's live servers
  /// and degraded routes, minus servers whose breaker is open, with gray
  /// servers demoted by the health tracker when one is kept.
  void resolve(std::size_t r, double now) {
    core::Eq8Request req = request(r, {});
    if (injector_) {
      const fault::AvailabilitySnapshot& snap = injector_->snapshot_at(now);
      req.server_up = snap.server_up;
      req.degraded_costs = &snap.costs;
    }
    if (breakers_on_) {
      if (req.server_up.empty()) {
        up_buf_.assign(instance_.server_count(), 1);
      } else {
        up_buf_.assign(req.server_up.begin(), req.server_up.end());
      }
      for (std::size_t i = 0; i < up_buf_.size(); ++i) {
        if (!breakers_[i].allows(now)) up_buf_[i] = 0;
      }
      req.server_up = up_buf_;
    }
    collect_hosts(r);
    req.hosts = eligible_;
    req.health = health_view_;
    if (filter_corrupt_) req.fault_free_hosts = reference_;

    const core::Eq8Resolution resolution = resolver_.resolve(req);
    result_.flows[r].tier = resolution.tier;
    Attempt& attempt = attempts_[r];
    attempt.expected_s = resolution.seconds;
    attempt.cloud_s =
        resolution.cloud_fragments > 0 ? resolution.cloud_seconds : -1.0;
    attempt.sources = resolution.edge_fragments();
    std::size_t* ids = source_ids_.data() + r * legs_per_attempt_;
    double* seconds = source_s_.data() + r * legs_per_attempt_;
    for (const core::EdgeLeg& leg : resolution.legs) {
      *ids++ = leg.host;
      *seconds++ = leg.seconds;
    }
  }

  /// Launches the resolved attempt at `now`: routed legs join the fluid
  /// loop; an attempt without routed legs completes (or starts its timed
  /// local service) right away.
  void launch(std::size_t r, double now) {
    FlowRecord& record = result_.flows[r];
    Attempt& attempt = attempts_[r];
    const std::size_t serving = serving_of(r);
    attempt.start_s = now;
    record.from_cloud = attempt.cloud_s >= 0.0;
    attempt.cloud_done_s =
        record.from_cloud ? cloud_done(now, attempt.cloud_s) : now;
    const net::Graph& graph =
        injector_ ? injector_->snapshot_at(now).graph : instance_.graph();
    const double size = leg_mb(r);
    const double* seconds = source_s_.data() + r * legs_per_attempt_;
    std::size_t hops = 0;
    bool corrupt_local = false;
    const std::span<const std::size_t> sources = sources_of(r);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const std::size_t source = sources[i];
      if (breakers_on_) breakers_[source].on_attempt_started(now);
      if (source == serving) {
        corrupt_local = corrupt_local || corrupt_read(source, r);
        continue;
      }
      const net::Route route = net::shortest_route(graph, source, serving);
      IDDE_ASSERT(!route.nodes.empty(), "resolver picked an unreachable host");
      hops = std::max(hops, route.hops());
      Leg leg;
      leg.record = r;
      leg.source = source;
      leg.size_mb = size;
      leg.remaining_mb = size;
      leg.expected_s = seconds[i];
      if (gray_ != nullptr) {
        leg.rate_scale = 1.0 / gray_->latency_multiplier(source, now);
        leg.lost = gray_->leg_lost(source, r, attempt.legs_launched, now);
      }
      ++attempt.legs_launched;
      leg.links.reserve(route.nodes.size() - 1);
      for (std::size_t s = 0; s + 1 < route.nodes.size(); ++s) {
        leg.links.push_back(
            sim_.link_between(route.nodes[s], route.nodes[s + 1]));
      }
      active_.push_back(std::move(leg));
      legs_changed_ = true;
      ++attempt.legs_left;
    }
    if (hops > 0) record.hops = hops;
    if (attempt.legs_left > 0) {
      if (slots_ > 0 && serving != core::ChannelSlot::kNone) take_slot(r);
    } else {
      record.local_hit = !record.from_cloud;
      const double service_s =
          record.local_hit && slots_ > 0
              ? item_mb(r) * qos_->admission.local_service_s_per_mb
              : 0.0;
      if (service_s > 0.0) {
        start_local_service(r, now, now + service_s);
        return;
      }
    }
    if (corrupt_local) {
      // Instant local read of a corrupt replica: fail the attempt through
      // the same-time event queue (kLocalAbort sorts before fresh work).
      events_.push(Event{now, EventKind::kLocalAbort, r});
      return;
    }
    if (attempt.legs_left == 0) finish(r, now);
  }

  /// Timed local service: holds a slot until `done`; a crash of the
  /// serving server aborts it at the first epoch boundary where it is down.
  void start_local_service(std::size_t r, double now, double done) {
    const std::size_t serving = serving_of(r);
    double abort_at = -1.0;
    if (plan_ != nullptr) {
      for (double t = plan_->next_edge_change_after(now); t < done;
           t = plan_->next_edge_change_after(t)) {
        if (!plan_->server_up(serving, t)) {
          abort_at = t;
          break;
        }
      }
    }
    take_slot(r);
    if (abort_at >= 0.0) {
      events_.push(Event{abort_at, EventKind::kLocalAbort, r});
    } else {
      result_.flows[r].completion_s = done;
      events_.push(Event{done, EventKind::kLocalDone, r});
    }
  }

  /// Starts one attempt: the first at arrival (after admission), retries
  /// after backoff.
  void start(std::size_t r, double now) {
    FlowRecord& record = result_.flows[r];
    record.from_cloud = false;
    record.local_hit = false;
    // A multi-leg attempt reports the longest route of its own legs; a
    // single-leg record keeps the hop count of its last routed attempt.
    if (legs_per_attempt_ > 1) record.hops = 0;
    // Without admission control the caps are checked when the retry comes
    // due; with it they were already applied when the attempt aborted.
    if (qos_ == nullptr && over_caps(r, now)) {
      force_cloud(r, now);
      return;
    }
    if (!static_world_) resolve(r, now);
    launch(r, now);
  }

  /// The attempt's last leg landed.
  void finish(std::size_t r, double now) {
    const Attempt& attempt = attempts_[r];
    result_.flows[r].completion_s = std::max(now, attempt.cloud_done_s);
    if (breakers_on_) {
      // With slow_ratio configured, a completion inflated past slow_ratio x
      // expected counts as a failure: gray servers trip the breaker without
      // ever aborting.
      for (const std::size_t source : sources_of(r)) {
        breakers_[source].record_completion(now, now - attempt.start_s,
                                            attempt.expected_s);
      }
    }
    release_slot(r, now);
  }

  /// Gives up on the edge: one final, unabortable cloud transfer.
  void force_cloud(std::size_t r, double now) {
    FlowRecord& record = result_.flows[r];
    record.forced_cloud = true;
    record.from_cloud = true;
    record.local_hit = false;
    record.tier = core::FallbackTier::kCloud;
    record.completion_s = cloud_done(
        now, instance_.latency().cloud_transfer_seconds(item_mb(r)));
  }

  /// Removes active leg `f` (swap with the back) and returns it.
  Leg remove_leg(std::size_t f) {
    Leg leg = std::move(active_[f]);
    if (f + 1 != active_.size()) active_[f] = std::move(active_.back());
    active_.pop_back();
    legs_changed_ = true;
    --attempts_[leg.record].legs_left;
    return leg;
  }

  /// One aborted attempt: its remaining legs are dropped (a partial
  /// fragment set cannot reconstruct the item), the retry is counted and
  /// the breakers fed, then the record retries after backoff or goes
  /// cloud-direct. A dropped leg that drained in the same step has landed
  /// and is settled first, so its bytes and health evidence still count.
  /// Returns true when sibling legs were dropped, which reorders active_
  /// behind a caller's cursor.
  bool abort_attempt(std::size_t r, double now) {
    IDDE_OBS_COUNT("des.attempt_aborts_total", 1);
    const bool dropped = attempts_[r].legs_left > 0;
    for (std::size_t f = 0; dropped && f < active_.size();) {
      if (active_[f].record == r) {
        const Leg sibling = remove_leg(f);
        if (sibling.remaining_mb <= kDrainedMb) (void)settle(sibling, now);
      } else {
        ++f;
      }
    }
    FlowRecord& record = result_.flows[r];
    ++record.retries;
    if (breakers_on_) {
      for (const std::size_t source : sources_of(r)) {
        breakers_[source].record_failure(now);
      }
    }
    // Under admission control the retry is decided now: past the caps, or
    // with the retry budget empty, the storm stops here, cloud-direct.
    if (qos_ != nullptr &&
        (over_caps(r, now) || !budget_->try_spend_retry())) {
      force_cloud(r, now);
    } else {
      const double backoff = std::min(
          options_.retry_backoff_s *
              std::ldexp(1.0, static_cast<int>(record.retries) - 1),
          options_.retry_backoff_max_s);
      events_.push(Event{now + backoff, EventKind::kRetry, r});
    }
    release_slot(r, now);
    return dropped;
  }

  void take_slot(std::size_t r) {
    ++in_service_[serving_of(r)];
    attempts_[r].holds_slot = true;
  }

  void release_slot(std::size_t r, double now) {
    if (!attempts_[r].holds_slot) return;
    attempts_[r].holds_slot = false;
    const std::size_t serving = serving_of(r);
    IDDE_ASSERT(in_service_[serving] > 0, "slot release underflow");
    --in_service_[serving];
    drain(serving, now);
  }

  /// Admits waiting requests into freed slots, purging unmeetable heads.
  void drain(std::size_t server, double now) {
    qos::AdmissionQueue& queue = queues_[server];
    while (in_service_[server] < slots_ && !queue.empty()) {
      const qos::QueueEntry entry = queue.pop_front();
      FlowRecord& record = result_.flows[entry.record];
      if (unmeetable(entry.record, now)) {
        if (entry.retry) {
          force_cloud(entry.record, now);
        } else {
          record.outcome = FlowOutcome::kShed;
          record.completion_s = now;
        }
        continue;
      }
      record.queue_wait_s += now - entry.enqueue_s;
      start(entry.record, now);
    }
  }

  /// True when `r` may start now; otherwise it waits in its server's queue.
  [[nodiscard]] bool slot_free(std::size_t r) const {
    const std::size_t serving = serving_of(r);
    return slots_ == 0 || serving == core::ChannelSlot::kNone ||
           in_service_[serving] < slots_;
  }

  void on_fresh(std::size_t r, double now) {
    if (qos_ == nullptr) {
      start(r, now);
      return;
    }
    budget_->on_fresh_arrival();
    FlowRecord& record = result_.flows[r];
    if (unmeetable(r, now)) {
      record.outcome = FlowOutcome::kShed;
      record.completion_s = now;
      return;
    }
    if (slot_free(r)) {
      start(r, now);
      return;
    }
    qos::AdmissionQueue& queue = queues_[serving_of(r)];
    if (queue.full()) {
      record.outcome = FlowOutcome::kRejected;
      record.completion_s = now;
      return;
    }
    queue.push(qos::QueueEntry{r, now, /*retry=*/false});
  }

  void on_retry(std::size_t r, double now) {
    if (unmeetable(r, now)) {
      // Already admitted: the deadline miss becomes a cloud fetch, not a
      // shed.
      force_cloud(r, now);
      return;
    }
    if (slot_free(r)) {
      start(r, now);
      return;
    }
    // Retries bypass the capacity check: their population is bounded by
    // the retry budget / max_retries, and dropping an admitted request
    // would leak the accounting invariant.
    queues_[serving_of(r)].push(qos::QueueEntry{r, now, /*retry=*/true});
  }

  void dispatch(const Event& event, double now) {
    const std::size_t r = event.record;
    switch (event.kind) {
      case EventKind::kFresh:
        on_fresh(r, now);
        break;
      case EventKind::kRetry:
        on_retry(r, now);
        break;
      case EventKind::kLocalDone:
        // The service time may have been spent shipping garbage.
        if (corrupt_read(serving_of(r), r)) {
          abort_attempt(r, now);
        } else {
          finish(r, now);
        }
        break;
      case EventKind::kLocalAbort:
        abort_attempt(r, now);
        break;
    }
  }

  /// Routed legs whose transfer ended: a lost or corrupt leg aborts its
  /// attempt, a genuine one lands (the attempt completes on its last leg).
  /// release_slot may start queued work, which appends legs with their full
  /// size — the index loop visits and keeps them.
  void land_legs(double now) {
    for (std::size_t f = 0; f < active_.size();) {
      if (active_[f].remaining_mb > kDrainedMb) {
        ++f;
        continue;
      }
      const Leg leg = remove_leg(f);
      const std::size_t r = leg.record;
      if (settle(leg, now)) {
        if (abort_attempt(r, now)) f = 0;
      } else if (attempts_[r].legs_left == 0) {
        finish(r, now);
      }
    }
  }

  /// Accounts a leg whose transfer ended: a lost leg transferred fully and
  /// failed its integrity check (bytes burned), a genuine one is health
  /// evidence. Returns true when the leg fails its attempt (lost, or a
  /// corrupt replica caught on read).
  bool settle(const Leg& leg, double now) {
    if (leg.lost) {
      ++result_.loss_aborts;
      ++result_.flows[leg.record].losses;
      result_.lost_mb += leg.size_mb;
      if (health_view_ != nullptr) health_.record_loss(leg.source);
      return true;
    }
    if (health_view_ != nullptr && leg.expected_s > 0.0) {
      health_.record_leg(leg.source, leg.expected_s,
                         now - attempts_[leg.record].start_s);
    }
    return corrupt_read(leg.source, leg.record);
  }

  [[nodiscard]] bool dead(const Leg& leg, double now) const {
    for (const std::size_t l : leg.links) {
      const Link& link = sim_.links_[l];
      if (!plan_->server_up(link.a, now) || !plan_->server_up(link.b, now) ||
          !plan_->link_up(link.a, link.b, now)) {
        return true;
      }
    }
    return false;
  }

  /// Epoch boundary: legs crossing a dead server or link abort their
  /// attempts. A single-leg attempt aborts as its leg is found; multi-leg
  /// attempts abort as units once every dead leg is known, in record order.
  void abort_dead_legs(double now) {
    if (legs_per_attempt_ == 1) {
      for (std::size_t f = 0; f < active_.size();) {
        if (dead(active_[f], now)) {
          abort_attempt(remove_leg(f).record, now);
        } else {
          ++f;
        }
      }
      return;
    }
    aborted_.clear();
    for (const Leg& leg : active_) {
      if (dead(leg, now)) aborted_.push_back(leg.record);
    }
    std::sort(aborted_.begin(), aborted_.end());
    aborted_.erase(std::unique(aborted_.begin(), aborted_.end()),
                   aborted_.end());
    for (const std::size_t r : aborted_) abort_attempt(r, now);
  }

  const FlowLevelSimulator& sim_;
  const model::ProblemInstance& instance_;
  const FlowSimOptions& options_;
  const core::AllocationProfile& allocation_;
  const bool collaborative_;
  const core::DeliveryProfile& delivery_;
  const std::size_t legs_per_attempt_;  ///< the profile's k

  // What is active in this run (null/false = inert).
  const fault::FaultPlan* plan_ = nullptr;
  std::optional<fault::FaultInjector> injector_;
  const qos::QosConfig* qos_ = nullptr;
  const fault::DegradationPlan* gray_ = nullptr;
  bool checksum_on_read_ = false;
  bool filter_corrupt_ = false;
  bool static_world_ = false;

  core::HealthTracker health_;
  const core::HealthTracker* health_view_ = nullptr;
  core::Eq8Resolver resolver_;

  // Admission control (sized only when qos_ is active).
  std::size_t slots_ = 0;
  bool deadline_aware_ = false;
  bool breakers_on_ = false;
  std::vector<std::size_t> in_service_;
  std::vector<qos::AdmissionQueue> queues_;
  std::vector<qos::CircuitBreaker> breakers_;
  std::optional<qos::RetryBudget> budget_;

  FlowSimResult result_;
  std::vector<Attempt> attempts_;
  std::vector<std::size_t> source_ids_;
  std::vector<double> source_s_;  ///< per-source resolver seconds
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::vector<Leg> active_;
  std::vector<double> capacities_;
  detail::FluidScratch scratch_;
  /// Set when a leg joins or leaves active_: the rates need a new solve.
  bool legs_changed_ = false;
  std::size_t fluid_solves_ = 0;
  std::size_t freeze_rounds_ = 0;
  /// The first edge-availability change after the loop's last `now`.
  double next_epoch_ = 0.0;
  std::vector<std::size_t> eligible_;
  std::vector<std::size_t> reference_;
  std::vector<std::uint8_t> up_buf_;
  std::vector<std::size_t> aborted_;
};

FlowLevelSimulator::FlowLevelSimulator(const model::ProblemInstance& instance,
                                       FlowSimOptions options)
    : instance_(&instance), options_(options) {
  IDDE_EXPECTS(options.link_capacity_scale > 0.0);
  IDDE_EXPECTS(options.arrival_window_s >= 0.0);
  // Deduplicated undirected link table; parallel edges keep the fastest.
  std::map<std::pair<std::size_t, std::size_t>, double> best;
  const net::Graph& graph = instance.graph();
  for (std::size_t a = 0; a < graph.node_count(); ++a) {
    for (const net::Neighbor& nb : graph.neighbors(a)) {
      if (a >= nb.node) continue;
      const double capacity =
          options.link_capacity_scale / nb.weight;  // MB/s
      auto [it, inserted] = best.try_emplace({a, nb.node}, capacity);
      if (!inserted) it->second = std::max(it->second, capacity);
    }
  }
  const std::size_t n = graph.node_count();
  links_.reserve(best.size());
  link_ids_.assign(n * n, kNoLink);
  for (const auto& [key, capacity] : best) {
    const auto id = static_cast<std::uint32_t>(links_.size());
    link_ids_[key.first * n + key.second] = id;
    link_ids_[key.second * n + key.first] = id;
    links_.push_back(Link{key.first, key.second, capacity});
  }
}

std::size_t FlowLevelSimulator::link_between(std::size_t a,
                                             std::size_t b) const {
  const std::uint32_t id = link_ids_[a * instance_->graph().node_count() + b];
  IDDE_ASSERT(id != kNoLink, "route uses a missing link");
  return id;
}

FlowSimResult FlowLevelSimulator::run(const core::Strategy& strategy,
                                      util::Rng& rng) const {
  IDDE_OBS_SPAN("des.run");
  return Replay(*this, strategy).run(rng);
}

}  // namespace idde::des
