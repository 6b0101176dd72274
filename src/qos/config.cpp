#include "qos/config.hpp"

#include "util/format.hpp"

namespace idde::qos {

using util::Json;
using util::JsonObject;

const char* to_string(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kReplay: return "replay";
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kFlashCrowd: return "flash-crowd";
  }
  return "replay";
}

const char* to_string(SheddingPolicy policy) {
  switch (policy) {
    case SheddingPolicy::kNone: return "none";
    case SheddingPolicy::kRejectNewest: return "reject-newest";
    case SheddingPolicy::kDeadlineAware: return "deadline-aware";
  }
  return "none";
}

ArrivalProcess arrival_process_from_string(std::string_view s) {
  if (s == "replay") return ArrivalProcess::kReplay;
  if (s == "poisson") return ArrivalProcess::kPoisson;
  if (s == "flash-crowd") return ArrivalProcess::kFlashCrowd;
  throw util::JsonError(util::format("unknown arrival process '{}'", s));
}

SheddingPolicy shedding_policy_from_string(std::string_view s) {
  if (s == "none") return SheddingPolicy::kNone;
  if (s == "reject-newest") return SheddingPolicy::kRejectNewest;
  if (s == "deadline-aware") return SheddingPolicy::kDeadlineAware;
  throw util::JsonError(util::format("unknown shedding policy '{}'", s));
}

Json qos_to_json(const QosConfig& config) {
  JsonObject arrivals;
  arrivals["process"] = std::string(to_string(config.arrivals.process));
  arrivals["load_multiplier"] = config.arrivals.load_multiplier;
  arrivals["window_s"] = config.arrivals.window_s;
  arrivals["flash_fraction"] = config.arrivals.flash_fraction;
  arrivals["flash_start_s"] = config.arrivals.flash_start_s;
  arrivals["flash_width_s"] = config.arrivals.flash_width_s;

  JsonObject admission;
  admission["policy"] = std::string(to_string(config.admission.policy));
  admission["service_slots"] = config.admission.service_slots;
  admission["queue_capacity"] = config.admission.queue_capacity;
  admission["deadline_s"] = config.admission.deadline_s;
  admission["local_service_s_per_mb"] = config.admission.local_service_s_per_mb;

  JsonObject retry;
  retry["ratio"] = config.retry_budget.ratio;
  retry["burst"] = config.retry_budget.burst;

  JsonObject breaker;
  breaker["enabled"] = config.breaker.enabled;
  breaker["window"] = config.breaker.window;
  breaker["min_samples"] = config.breaker.min_samples;
  breaker["failure_threshold"] = config.breaker.failure_threshold;
  breaker["open_duration_s"] = config.breaker.open_duration_s;
  breaker["half_open_probes"] = config.breaker.half_open_probes;
  breaker["slow_ratio"] = config.breaker.slow_ratio;

  JsonObject document;
  document.emplace("arrivals", std::move(arrivals));
  document.emplace("admission", std::move(admission));
  document.emplace("retry_budget", std::move(retry));
  document.emplace("breaker", std::move(breaker));
  return Json(std::move(document));
}

namespace {

std::size_t size_or(const Json& json, std::string_view key,
                    std::size_t fallback) {
  const std::int64_t v =
      json.int_or(key, static_cast<std::int64_t>(fallback));
  return v < 0 ? fallback : static_cast<std::size_t>(v);
}

}  // namespace

QosConfig qos_from_json(const Json& json) {
  QosConfig config;
  if (const Json* a = json.find("arrivals"); a != nullptr) {
    config.arrivals.process = arrival_process_from_string(
        a->string_or("process", to_string(config.arrivals.process)));
    config.arrivals.load_multiplier =
        a->number_or("load_multiplier", config.arrivals.load_multiplier);
    config.arrivals.window_s = a->number_or("window_s",
                                            config.arrivals.window_s);
    config.arrivals.flash_fraction =
        a->number_or("flash_fraction", config.arrivals.flash_fraction);
    config.arrivals.flash_start_s =
        a->number_or("flash_start_s", config.arrivals.flash_start_s);
    config.arrivals.flash_width_s =
        a->number_or("flash_width_s", config.arrivals.flash_width_s);
  }
  if (const Json* a = json.find("admission"); a != nullptr) {
    config.admission.policy = shedding_policy_from_string(
        a->string_or("policy", to_string(config.admission.policy)));
    config.admission.service_slots =
        size_or(*a, "service_slots", config.admission.service_slots);
    config.admission.queue_capacity =
        size_or(*a, "queue_capacity", config.admission.queue_capacity);
    config.admission.deadline_s =
        a->number_or("deadline_s", config.admission.deadline_s);
    config.admission.local_service_s_per_mb = a->number_or(
        "local_service_s_per_mb", config.admission.local_service_s_per_mb);
  }
  if (const Json* r = json.find("retry_budget"); r != nullptr) {
    config.retry_budget.ratio = r->number_or("ratio",
                                             config.retry_budget.ratio);
    config.retry_budget.burst = r->number_or("burst",
                                             config.retry_budget.burst);
  }
  if (const Json* b = json.find("breaker"); b != nullptr) {
    config.breaker.enabled = b->bool_or("enabled", config.breaker.enabled);
    config.breaker.window = size_or(*b, "window", config.breaker.window);
    config.breaker.min_samples =
        size_or(*b, "min_samples", config.breaker.min_samples);
    config.breaker.failure_threshold =
        b->number_or("failure_threshold", config.breaker.failure_threshold);
    config.breaker.open_duration_s =
        b->number_or("open_duration_s", config.breaker.open_duration_s);
    config.breaker.half_open_probes =
        size_or(*b, "half_open_probes", config.breaker.half_open_probes);
    config.breaker.slow_ratio =
        b->number_or("slow_ratio", config.breaker.slow_ratio);
  }
  return config;
}

}  // namespace idde::qos
