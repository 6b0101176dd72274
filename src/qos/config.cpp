#include "qos/config.hpp"

#include "util/error.hpp"

namespace idde::qos {

// Indexed by enumerator.
constexpr const char* kProcessNames[] = {"replay", "poisson", "flash-crowd"};
constexpr const char* kPolicyNames[] = {"none", "reject-newest",
                                        "deadline-aware"};

ArrivalProcess arrival_process_from_string(std::string_view s) {
  return static_cast<ArrivalProcess>(
      util::name_index(kProcessNames, s, "arrival process"));
}

SheddingPolicy shedding_policy_from_string(std::string_view s) {
  return static_cast<SheddingPolicy>(
      util::name_index(kPolicyNames, s, "shedding policy"));
}

void config_fields(util::ConfigIo& io, QosConfig& config) {
  using enum util::Domain;
  io.object("arrivals", [&a = config.arrivals](util::ConfigIo& sub) {
    sub.name("process", a.process, kProcessNames);
    sub.real("load_multiplier", a.load_multiplier, kNonNegative);
    sub.real("window_s", a.window_s, kNonNegative);
    sub.real("flash_fraction", a.flash_fraction, kProbability);
    sub.real("flash_start_s", a.flash_start_s, kNonNegative);
    sub.real("flash_width_s", a.flash_width_s, kNonNegative);
  });
  io.object("admission", [&a = config.admission](util::ConfigIo& sub) {
    sub.name("policy", a.policy, kPolicyNames);
    sub.count("service_slots", a.service_slots);
    sub.count("queue_capacity", a.queue_capacity);
    sub.real("deadline_s", a.deadline_s, kNonNegative);
    sub.real("local_service_s_per_mb", a.local_service_s_per_mb, kNonNegative);
  });
  io.object("retry_budget", [&r = config.retry_budget](util::ConfigIo& sub) {
    sub.real("ratio", r.ratio, kFinite);  // negative = unlimited
    sub.real("burst", r.burst, kNonNegative);
  });
  io.object("breaker", [&b = config.breaker](util::ConfigIo& sub) {
    sub.flag("enabled", b.enabled);
    sub.count("window", b.window);
    sub.count("min_samples", b.min_samples);
    sub.real("failure_threshold", b.failure_threshold, kProbability);
    sub.real("open_duration_s", b.open_duration_s, kNonNegative);
    sub.count("half_open_probes", b.half_open_probes);
    sub.real("slow_ratio", b.slow_ratio, kNonNegative);
  });
}

util::Json qos_to_json(const QosConfig& config) {
  return util::config_to_json(config);
}

QosConfig qos_from_json(const util::Json& json) {
  return util::config_from_json<QosConfig>(json);
}

void check_qos(const QosConfig& config) {
  util::check_config(config);
  util::validate(config.arrivals.inert() || config.arrivals.window_s > 0.0,
                 "qos: arrivals.window_s must be > 0 for open-loop arrivals");
}

}  // namespace idde::qos
