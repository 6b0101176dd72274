// DeliveryEvaluator: incremental evaluation of total delivery latency under
// a fixed user allocation. It is the work-horse of Phase 2 — the greedy
// planner asks "how much total latency would placing d_k on v_i remove?"
// thousands of times, so each request caches its current best latency and a
// candidate placement is scored by a single pass over the item's requests.
#pragma once

#include <cstddef>
#include <vector>

#include "core/strategy.hpp"
#include "model/instance.hpp"

namespace idde::core {

class DeliveryEvaluator {
 public:
  /// Snapshots the allocation (only the serving server of each user
  /// matters for latency). All requests start at the cloud latency, i.e.
  /// the empty sigma. With `collaborative` false, a replica only helps the
  /// users allocated to its own server (local-or-cloud delivery — the
  /// semantics of the non-collaborative baselines).
  DeliveryEvaluator(const model::ProblemInstance& instance,
                    const AllocationProfile& allocation,
                    bool collaborative = true);

  /// Rewinds to the empty sigma under a (possibly different) allocation,
  /// reusing every buffer: the request structure depends only on the
  /// instance, so no allocation happens here. After reset() the evaluator
  /// is indistinguishable from a freshly constructed one — the planners
  /// keep one evaluator per planner instead of building one per plan.
  void reset(const AllocationProfile& allocation, bool collaborative = true);

  /// Total latency reduction (seconds) of adding sigma_{i,k}, given all
  /// placements committed so far. Never negative (Eq. 8 takes the min).
  [[nodiscard]] double gain_seconds(std::size_t server,
                                    std::size_t item) const;

  /// Commits sigma_{i,k}: permanently lowers the affected requests'
  /// latencies. Returns the realised gain (== gain_seconds beforehand).
  double commit(std::size_t server, std::size_t item);

  /// Recomputes nothing: running total of sum_{j,k} zeta * L_{j,k}.
  [[nodiscard]] double total_latency_seconds() const noexcept {
    return total_latency_;
  }

  /// L_ave (Eq. 9), seconds.
  [[nodiscard]] double average_latency_seconds() const;

  [[nodiscard]] std::size_t request_count() const noexcept {
    return request_user_.size();
  }

  /// Current best latency (Eq. 8) of one request, seconds. Requests are
  /// numbered user-major in `requests().items_of(j)` order.
  [[nodiscard]] double request_latency_seconds(std::size_t id) const {
    return request_latency_[id];
  }

 private:
  const model::ProblemInstance* instance_;
  bool collaborative_;
  /// Serving server per user (ChannelSlot::kNone when unallocated).
  std::vector<std::size_t> serving_server_;
  // Flat request arrays (SoA), ids user-major. The per-item groups are a
  // CSR index over them: item k's request ids are
  // item_req_ids_[item_req_offset_[k] .. item_req_offset_[k+1]), ascending
  // — the same order the old vector-of-vectors held, so per-item gain
  // accumulation is bit-identical.
  std::vector<std::size_t> request_user_;
  std::vector<std::size_t> request_item_;
  std::vector<double> request_latency_;  ///< current best (Eq. 8)
  /// Serving server per request — the gain/commit inner loops read this
  /// directly instead of chasing request -> user -> serving server.
  std::vector<std::size_t> request_serving_;
  std::vector<std::size_t> item_req_ids_;     // request count
  std::vector<std::size_t> item_req_offset_;  // data count + 1
  double total_latency_ = 0.0;
};

/// Convenience: evaluates a complete strategy's total latency from scratch.
[[nodiscard]] double total_latency_seconds(
    const model::ProblemInstance& instance, const AllocationProfile& allocation,
    const DeliveryProfile& delivery, bool collaborative = true);

}  // namespace idde::core
