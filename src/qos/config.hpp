// Overload-protection configuration (the QoS layer).
//
// The paper's Eq. 8/9 latency model is load-oblivious: every request is
// served, instantly admitted, with the full link bandwidth. Real edge
// storage deployments die differently — offered load exceeds capacity,
// queues grow without bound, retries amplify the overload, and latency
// diverges while goodput collapses. The qos:: layer gives the flow-level
// DES (des::FlowLevelSimulator) the four standard defenses:
//
//   arrivals      open-loop arrival generation (Poisson / flash-crowd),
//                 so offered load can exceed capacity instead of replaying
//                 the fixed request batch once;
//   admission     per-server bounded queues with pluggable shedding;
//   retry_budget  a global token bucket capping retries as a fraction of
//                 fresh arrivals (no retry storms);
//   breaker       per-server circuit breakers (closed/open/half-open on a
//                 rolling failure rate) forcing cloud-direct delivery
//                 while open.
//
// Contract (mirrors fault::FaultPlan): every knob defaults to inert, and a
// QosConfig whose inert() is true makes the simulator take the exact
// pre-QoS code path — results are bit-identical to a config-less run.
// All behaviour is a pure function of (instance, strategy, config, seed):
// the engine is single-threaded and draws only from explicitly forked rng
// streams, so thread count and wall-clock never change a result.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/json.hpp"

namespace idde::qos {

/// How request arrivals are generated.
enum class ArrivalProcess : std::uint8_t {
  /// The pre-QoS behaviour: each (user, item) request occurs exactly once,
  /// jittered over FlowSimOptions::arrival_window_s. Inert.
  kReplay = 0,
  /// Poisson: each base request spawns on average `load_multiplier`
  /// arrivals, placed uniformly over [0, window_s) — the order-statistics
  /// form of a Poisson process conditioned on its count.
  kPoisson = 1,
  /// Flash crowd: as kPoisson, but `flash_fraction` of the arrivals are
  /// compressed into [flash_start_s, flash_start_s + flash_width_s).
  kFlashCrowd = 2,
};

enum class SheddingPolicy : std::uint8_t {
  /// Never drop anything: the admission queue is unbounded (classic
  /// congestion collapse under sustained overload — the control group).
  kNone = 0,
  /// Drop the arriving request when the bounded queue is full.
  kRejectNewest = 1,
  /// Drop requests whose deadline is already unmeetable (optimistic
  /// service estimate), at arrival and again when they reach the head of
  /// the queue; also drops on queue overflow.
  kDeadlineAware = 2,
};

struct ArrivalConfig {
  ArrivalProcess process = ArrivalProcess::kReplay;
  /// Mean offered copies per base request (the "x capacity" axis).
  double load_multiplier = 1.0;
  /// Arrivals land in [0, window_s).
  double window_s = 30.0;
  // Flash-crowd shape (kFlashCrowd only).
  double flash_fraction = 0.5;
  double flash_start_s = 5.0;
  double flash_width_s = 1.0;

  [[nodiscard]] bool inert() const noexcept {
    return process == ArrivalProcess::kReplay;
  }
};

struct AdmissionConfig {
  SheddingPolicy policy = SheddingPolicy::kNone;
  /// Concurrent in-service requests per serving server; 0 = unlimited
  /// (admission control disabled — the pre-QoS fluid model).
  std::size_t service_slots = 0;
  /// Bounded-queue capacity per server. Ignored under kNone (unbounded by
  /// design); 0 under the shedding policies means "no waiting room".
  std::size_t queue_capacity = 16;
  /// Per-request SLO deadline measured from arrival; 0 disables deadline
  /// accounting (and kDeadlineAware degenerates to kRejectNewest).
  double deadline_s = 0.0;
  /// Local hits are no longer free under admission control: serving a
  /// cached item costs this much per MB (storage/NIC service time). Only
  /// applied when service_slots > 0.
  double local_service_s_per_mb = 0.0;

  [[nodiscard]] bool inert() const noexcept {
    return service_slots == 0 && policy == SheddingPolicy::kNone &&
           deadline_s <= 0.0;
  }
};

struct RetryBudgetConfig {
  /// Tokens granted per fresh arrival; a retry costs one token. Negative =
  /// unlimited retries (the pre-QoS behaviour). 0.1 caps retries at ~10%
  /// of fresh arrivals.
  double ratio = -1.0;
  /// Token-bucket capacity (burst allowance).
  double burst = 16.0;

  [[nodiscard]] bool inert() const noexcept { return ratio < 0.0; }
};

struct BreakerConfig {
  bool enabled = false;
  /// Rolling outcome window per server (delivery successes/failures).
  std::size_t window = 20;
  /// Minimum outcomes in the window before the breaker may trip.
  std::size_t min_samples = 8;
  /// Open when failures / outcomes >= this fraction.
  double failure_threshold = 0.5;
  /// Time spent open before probing again.
  double open_duration_s = 5.0;
  /// Concurrent trial deliveries allowed while half-open.
  std::size_t half_open_probes = 2;
  /// Sustained-latency trip: a *completed* delivery whose observed seconds
  /// reach slow_ratio × expected seconds counts as a failure outcome, so
  /// gray (slow-not-dead) servers trip the breaker too. 0 = disabled.
  double slow_ratio = 0.0;

  [[nodiscard]] bool inert() const noexcept { return !enabled; }
};

struct QosConfig {
  ArrivalConfig arrivals;
  AdmissionConfig admission;
  RetryBudgetConfig retry_budget;
  BreakerConfig breaker;

  /// True when every subsystem is disabled — the simulator takes the exact
  /// pre-QoS code path (bit-identical results, enforced by test).
  [[nodiscard]] bool inert() const noexcept {
    return arrivals.inert() && admission.inert() && retry_budget.inert() &&
           breaker.inert();
  }
};

/// The QosConfig field walk (util::ConfigIo).
void config_fields(util::ConfigIo& io, QosConfig& config);

[[nodiscard]] util::Json qos_to_json(const QosConfig& config);
[[nodiscard]] QosConfig qos_from_json(const util::Json& json);

/// qos_from_json's checks, then window_s > 0 for Poisson and flash-crowd
/// arrivals; throws util::JsonError or util::ValidationError naming the key.
void check_qos(const QosConfig& config);

/// Parse the JSON form's names; throw util::JsonError on unknown names.
[[nodiscard]] ArrivalProcess arrival_process_from_string(std::string_view s);
[[nodiscard]] SheddingPolicy shedding_policy_from_string(std::string_view s);

}  // namespace idde::qos
