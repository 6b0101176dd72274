// Flow-level event-driven replay of a delivery strategy.
//
// The paper's latency metric (Eq. 8/9) is analytic: every transfer gets the
// full link bandwidth, so concurrent deliveries never contend. This module
// replays the same deliveries as fluid flows over the edge network and
// measures what contention, faults, overload and gray servers do to them
// (DESIGN.md §18, "DES engine").
//
// One event loop replays every configuration. Each request attempt is a set
// of *legs*: routed edge legs, water-filled max-min fairly over the links
// they cross (rates are recomputed at every leg launch and landing), and at
// most one uncontended cloud leg whose completion is fixed at launch. A
// replicated request has one leg; a request under an (n, k) code shape
// with k > 1 has e edge legs plus an optional cloud top-up. The request
// completes when its last leg lands. Three decisions vary with the
// options, never the loop itself:
//
//   source selection  core::Eq8Resolver against the epoch the attempt
//                     starts in, with the delivery profile's k,
//                     health-weighted with health_aware;
//   admission         open-loop arrivals, per-server slots and queues,
//                     deadline-aware shedding, the retry budget and circuit
//                     breakers — inert unless `qos` is active;
//   gray effects      degradation-scaled leg rates, the stateless loss
//                     lottery and health-tracker feeding — inert unless
//                     `degradation` is active.
//
// An attempt that loses a leg (dead server or link at an epoch boundary, a
// gray loss, a checksum failure) aborts as a whole and retries with capped
// exponential backoff, or goes cloud-direct past the caps. Null or inert
// plans and configs replay bit-identically to a run without them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/health.hpp"
#include "core/resolver.hpp"
#include "core/strategy.hpp"
#include "fault/degradation.hpp"
#include "fault/fault_plan.hpp"
#include "model/instance.hpp"
#include "qos/config.hpp"
#include "util/random.hpp"

namespace idde::des {

struct FlowSimOptions {
  /// Scale factor on every edge-link capacity (1.0 = the instance's
  /// 2000-6000 MB/s links; < 1 stresses contention).
  double link_capacity_scale = 1.0;
  /// Requests arrive over [0, window); 0 = everything at t = 0 (the
  /// worst-case burst).
  double arrival_window_s = 0.0;

  /// Optional fault schedule (not owned; must outlive the simulator run).
  /// Null or inert = the fault-free replay, bit for bit.
  const fault::FaultPlan* fault_plan = nullptr;
  /// First retry delay after an aborted attempt; doubles per attempt.
  double retry_backoff_s = 0.05;
  /// Cap on the exponential backoff.
  double retry_backoff_max_s = 2.0;
  /// Aborted attempts retry at most this many times, then go cloud-direct.
  std::size_t max_retries = 8;
  /// A request older than this is forced to the cloud on its next attempt.
  double timeout_s = 120.0;

  /// Optional overload-protection config (not owned; must outlive the run).
  /// Null or inert = the replay without admission control, bit for bit.
  const qos::QosConfig* qos = nullptr;

  /// Optional gray-failure schedule (not owned; must outlive the run):
  /// routed legs from a degraded server drain at rate / multiplier and may
  /// be lost (integrity failure on landing). Null or inert = the replay
  /// without gray effects, bit for bit.
  const fault::DegradationPlan* degradation = nullptr;
  /// Health-weight source selection with a tracker
  /// fed by the legs this run observes under the degradation plan
  /// (demotes gray servers).
  bool health_aware = false;
  /// Tracker parameters used when health_aware is set.
  core::HealthConfig health;
};

/// What finally happened to one offered arrival.
enum class FlowOutcome : std::uint8_t {
  kServed = 0,    ///< admitted and delivered (any tier)
  kShed = 1,      ///< dropped by deadline-aware shedding
  kRejected = 2,  ///< dropped by reject-newest on a full queue
};

struct FlowRecord {
  std::size_t user = 0;
  std::size_t item = 0;
  double arrival_s = 0.0;
  double completion_s = 0.0;
  /// Transfer duration (completion - arrival).
  [[nodiscard]] double duration_s() const { return completion_s - arrival_s; }
  bool from_cloud = false;
  bool local_hit = false;
  std::size_t hops = 0;
  // Fault-mode diagnostics (defaults describe the fault-free replay).
  std::size_t retries = 0;    ///< aborted attempts before success
  bool forced_cloud = false;  ///< hit the retry/timeout cap (or an empty
                              ///< retry budget / unmeetable retry deadline)
  core::FallbackTier tier = core::FallbackTier::kPrimary;
  // QoS-mode diagnostics (defaults describe the replay without QoS).
  FlowOutcome outcome = FlowOutcome::kServed;
  double queue_wait_s = 0.0;     ///< admission-queue wait before service
  bool deadline_missed = false;  ///< served, but after the SLO deadline
  std::size_t losses = 0;        ///< legs lost to gray integrity failures
};

/// SLO accounting of one run. For a run without an active QosConfig the
/// invariant collapses to offered == admitted == flows.size().
struct QosStats {
  std::size_t offered = 0;    ///< arrivals generated (open- or closed-loop)
  std::size_t admitted = 0;   ///< started service (== served: the schedule
                              ///< is finite, so every admitted request ends)
  std::size_t shed = 0;       ///< dropped by deadline-aware shedding
  std::size_t rejected = 0;   ///< dropped by reject-newest on a full queue
  std::size_t deadline_misses = 0;  ///< served but past the deadline
  std::size_t goodput_flows = 0;    ///< served within the deadline
  /// goodput_flows / arrival window — comparable across load multipliers.
  double goodput_rps = 0.0;
  double offered_rps = 0.0;
  std::size_t retries_denied = 0;  ///< retry-budget bucket was empty
  std::size_t breaker_opens = 0;   ///< breaker trips (closed/half-open -> open)
  double mean_queue_wait_ms = 0.0;
  /// Per-fallback-tier latency percentiles over served flows (0 when the
  /// tier served nothing).
  std::array<double, core::kFallbackTiers> tier_p50_ms{};
  std::array<double, core::kFallbackTiers> tier_p99_ms{};
};

struct FlowSimResult {
  std::vector<FlowRecord> flows;          ///< one per offered arrival
  double mean_duration_ms = 0.0;          ///< the DES analogue of L_avg
  double p95_duration_ms = 0.0;
  double p99_duration_ms = 0.0;           ///< degraded tail (faults live here)
  double max_duration_ms = 0.0;
  double makespan_s = 0.0;                ///< last completion
  std::size_t local_hits = 0;
  std::size_t cloud_fetches = 0;
  /// Fluid-loop steps. The max-min solve runs only on the steps where a
  /// leg joined or left since the last one (des.fluid_solves_total).
  std::size_t rate_recomputations = 0;
  // Resilience aggregates (trivial — availability 1, zero counts — for a
  // fault-free replay).
  double availability = 1.0;  ///< flows served first-try at the primary tier
  std::size_t retry_count = 0;          ///< total aborted attempts
  std::size_t forced_cloud_fetches = 0;
  std::array<std::size_t, core::kFallbackTiers> tier_counts{};
  /// Overload/SLO accounting. Trivially consistent (offered == admitted,
  /// zero shed/rejected) for a run without an active QosConfig.
  QosStats qos;
  // Gray accounting (zero without an active degradation plan).
  std::size_t loss_aborts = 0;  ///< legs lost to gray integrity failures
  /// Exact bytes burned by lost legs: each transfers fully before its
  /// integrity check fails.
  double lost_mb = 0.0;
};

class FlowLevelSimulator {
 public:
  explicit FlowLevelSimulator(const model::ProblemInstance& instance,
                              FlowSimOptions options = {});

  /// Replays the strategy's deliveries. `rng` drives arrival jitter
  /// (unused when arrival_window_s == 0) or the open-loop arrival process.
  ///
  /// At k = 1 an attempt is one leg. At k > 1 its e edge fragments are
  /// parallel routed legs and its k - e cloud fragments one cloud leg; a
  /// lost leg aborts the whole attempt (partial fragment sets cannot
  /// reconstruct the item). Slot-based admission has no faithful coded
  /// meaning (an attempt spans several servers), so at k > 1 an active QoS
  /// config must leave service_slots at 0.
  [[nodiscard]] FlowSimResult run(const core::Strategy& strategy,
                                  util::Rng& rng) const;

 private:
  class Replay;  // the event loop (flow_sim.cpp)

  const model::ProblemInstance* instance_;
  FlowSimOptions options_;
  // Link table: one entry per undirected edge, with capacity in MB/s.
  struct Link {
    std::size_t a;
    std::size_t b;
    double capacity_mbps;
  };
  std::vector<Link> links_;
  /// Dense (a, b) -> link index table, both orientations; kNoLink when the
  /// servers are not adjacent.
  std::vector<std::uint32_t> link_ids_;
  static constexpr std::uint32_t kNoLink = static_cast<std::uint32_t>(-1);
  [[nodiscard]] std::size_t link_between(std::size_t a, std::size_t b) const;
};

}  // namespace idde::des
