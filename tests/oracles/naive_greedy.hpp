// Test/bench oracle for the Phase-2 greedy delivery planner: the naive
// greedy, which re-scores every feasible (server, item) candidate before
// each placement.
//
// No heap and no stale keys: each step scans all N*K candidates and
// commits the best ratio (Eq. 17). core::GreedyDeliveryPlanner::plan (the
// lazy greedy) must reach the same latency;
// tests/test_core_delivery.cpp holds it to that and bench/ablation_greedy
// counts the gain evaluations the lazy heap saves.
#pragma once

#include "core/greedy_delivery.hpp"
#include "core/strategy.hpp"
#include "model/instance.hpp"

namespace idde::oracle {

/// Runs the naive greedy on `allocation`. gain_evaluations counts every
/// candidate scored.
[[nodiscard]] core::GreedyDeliveryResult naive_greedy_plan(
    const model::ProblemInstance& instance,
    const core::AllocationProfile& allocation);

}  // namespace idde::oracle
