#include "sim/overload.hpp"

namespace idde::sim {

des::FlowSimResult run_overload_cell(const model::ProblemInstance& instance,
                                     const core::Strategy& strategy,
                                     const OverloadCell& cell) {
  qos::check_qos(cell.qos);
  des::FlowSimOptions options = cell.des;
  options.qos = &cell.qos;
  fault::FaultPlan plan;  // inert by default
  if (!cell.fault.inert()) {
    plan = fault::FaultPlan::generate(instance, cell.fault, cell.seed ^ 0x4a17);
    options.fault_plan = &plan;
  } else {
    options.fault_plan = nullptr;
  }
  util::Rng rng(cell.seed ^ 0x10adULL);
  return des::FlowLevelSimulator(instance, options).run(strategy, rng);
}

util::Json qos_stats_to_json(const des::QosStats& stats) {
  util::JsonObject json;
  json["offered"] = stats.offered;
  json["admitted"] = stats.admitted;
  json["shed"] = stats.shed;
  json["rejected"] = stats.rejected;
  json["deadline_misses"] = stats.deadline_misses;
  json["goodput_flows"] = stats.goodput_flows;
  json["goodput_rps"] = stats.goodput_rps;
  json["offered_rps"] = stats.offered_rps;
  json["retries_denied"] = stats.retries_denied;
  json["breaker_opens"] = stats.breaker_opens;
  json["mean_queue_wait_ms"] = stats.mean_queue_wait_ms;
  util::JsonArray p50;
  util::JsonArray p99;
  for (std::size_t t = 0; t < core::kFallbackTiers; ++t) {
    p50.emplace_back(stats.tier_p50_ms[t]);
    p99.emplace_back(stats.tier_p99_ms[t]);
  }
  json["tier_p50_ms"] = std::move(p50);
  json["tier_p99_ms"] = std::move(p99);
  return util::Json(std::move(json));
}

qos::QosConfig overload_qos_config(double load_multiplier,
                                   qos::SheddingPolicy policy,
                                   double retry_ratio) {
  qos::QosConfig config;
  config.arrivals.process = qos::ArrivalProcess::kPoisson;
  config.arrivals.load_multiplier = load_multiplier;
  config.arrivals.window_s = 10.0;
  config.admission.policy = policy;
  config.admission.service_slots = 2;
  config.admission.queue_capacity = 16;
  config.admission.deadline_s = 2.0;
  config.admission.local_service_s_per_mb = 0.02;
  config.retry_budget.ratio = retry_ratio;
  config.retry_budget.burst = 16.0;
  return config;
}

qos::QosConfig chaos_qos_config(double load_multiplier,
                                qos::SheddingPolicy policy,
                                double retry_ratio) {
  qos::QosConfig config = overload_qos_config(load_multiplier, policy,
                                              retry_ratio);
  // A small burst so tight budgets actually deny under chaos (the bucket
  // starts full; a 16-token burst would absorb a whole small soak run).
  config.retry_budget.burst = 2.0;
  config.breaker.enabled = true;
  config.breaker.window = 16;
  config.breaker.min_samples = 6;
  config.breaker.failure_threshold = 0.5;
  config.breaker.open_duration_s = 2.0;
  config.breaker.half_open_probes = 2;
  return config;
}

fault::FaultProfile chaos_fault_profile() {
  fault::FaultProfile profile;
  profile.horizon_s = 12.0;
  profile.server_mtbf_s = 15.0;
  profile.server_mttr_s = 3.0;
  profile.link_mtbf_s = 12.0;
  profile.link_mttr_s = 2.0;
  profile.cloud_mtbf_s = 30.0;
  profile.cloud_mttr_s = 1.0;
  // High enough that corrupt replicas reliably trip breakers in the soak
  // (corruption is the failure class the oracle resolver cannot see).
  profile.replica_corruption_prob = 0.1;
  return profile;
}

}  // namespace idde::sim
