// The paper's three evaluation metrics (Section 4.4): R_avg, L_avg and the
// computation time (measured by the harness, not here).
#pragma once

#include <vector>

#include "core/delivery.hpp"
#include "core/strategy.hpp"
#include "model/instance.hpp"

namespace idde::core {

/// Per-user actual data rates R_j (Eq. 4): Shannon rate at the allocated
/// channel, capped at R_{j,max}; 0 for unallocated users. MB/s.
[[nodiscard]] std::vector<double> user_rates(
    const model::ProblemInstance& instance,
    const AllocationProfile& allocation);

/// R_avg (Eq. 5): mean over all M users (unallocated count as 0). MB/s.
[[nodiscard]] double average_data_rate_mbps(const model::ProblemInstance& instance,
                                       const AllocationProfile& allocation);

/// L_avg (Eq. 9) in milliseconds (the paper reports ms). `collaborative`
/// selects full Eq. 8 delivery vs the local-or-cloud semantics of the
/// non-collaborative baselines; the shape of `delivery` picks the
/// evaluator, as in total_latency_seconds.
[[nodiscard]] double average_latency_ms(const model::ProblemInstance& instance,
                                        const AllocationProfile& allocation,
                                        const DeliveryProfile& delivery,
                                        bool collaborative = true);

/// Metric bundle for one solved strategy.
struct StrategyMetrics {
  double avg_rate_mbps = 0.0;
  double avg_latency_ms = 0.0;
  std::size_t allocated_users = 0;
  std::size_t placements = 0;
};

[[nodiscard]] StrategyMetrics evaluate(const model::ProblemInstance& instance,
                                       const Strategy& strategy);

}  // namespace idde::core
