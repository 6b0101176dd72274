// Overload experiment plumbing: one "cell" = (QoS config, optional fault
// profile, DES options, seed) replayed through the overload-aware DES.
// Shared by bench/ext_overload (the load x policy x budget sweep and the
// chaos soak) and the `replay` subcommand of tools/idde_tool, so both
// agree on how a cell is wired and how its SLO accounting is rendered.
#pragma once

#include "core/strategy.hpp"
#include "des/flow_sim.hpp"
#include "fault/fault_plan.hpp"
#include "model/instance.hpp"
#include "qos/config.hpp"
#include "util/json.hpp"

namespace idde::sim {

/// One cell of the overload grid. `des.qos` and `des.fault_plan` are
/// overwritten by run_overload_cell — configure faults via `fault` and
/// overload via `qos` instead.
struct OverloadCell {
  qos::QosConfig qos;
  fault::FaultProfile fault;  ///< inert() = pure overload, no chaos
  des::FlowSimOptions des;
  std::uint64_t seed = 1;
};

/// Checks the QoS config (qos::check_qos), then replays `strategy` through
/// the overload-aware DES with the seeded fault plan of an active profile.
/// Deterministic in (instance, strategy, cell).
[[nodiscard]] des::FlowSimResult run_overload_cell(
    const model::ProblemInstance& instance, const core::Strategy& strategy,
    const OverloadCell& cell);

/// Renders the SLO accounting of one run (a BENCH_overload.json row).
[[nodiscard]] util::Json qos_stats_to_json(const des::QosStats& stats);

/// The canonical bench/CI overload configuration: Poisson arrivals at
/// `load_multiplier` x the request matrix, bounded admission with the
/// given shedding policy, a deadline sized so a 1x load meets it
/// comfortably, and a retry budget at `retry_ratio` (negative =
/// unlimited). Breakers stay off here — they only matter under chaos
/// (see chaos_qos_config).
[[nodiscard]] qos::QosConfig overload_qos_config(double load_multiplier,
                                                 qos::SheddingPolicy policy,
                                                 double retry_ratio);

/// The chaos-soak configuration: overload_qos_config plus enabled
/// circuit breakers (the fault plan supplies the failures that trip
/// them).
[[nodiscard]] qos::QosConfig chaos_qos_config(double load_multiplier,
                                              qos::SheddingPolicy policy,
                                              double retry_ratio);

/// The fault profile paired with chaos_qos_config in the soak runner.
[[nodiscard]] fault::FaultProfile chaos_fault_profile();

}  // namespace idde::sim
