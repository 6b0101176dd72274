// CodedDeliveryEvaluator: incremental evaluation of total delivery
// latency under a fixed allocation when items are (n, k) erasure-coded.
// The planner asks "how much latency would one more fragment of d_k on v_i
// remove?" thousands of times; each request caches its current
// coded Eq. 8 latency and a candidate is scored by re-running the small
// per-request kernel over the item's hosts plus the candidate.
//
// Unlike DeliveryEvaluator, adding a fragment does not reduce each
// request to a single min update (the k-th-fastest leg shifts), so the
// evaluator tracks the per-item host sets itself in a flat K x N arena.
// At k = 1 the kernel degenerates to min(cached, new leg): gains, commit
// effects and the running total are bit-identical to DeliveryEvaluator in
// the same request order. The planners and total_latency_seconds run it
// only for profiles with k > 1.
#pragma once

#include <cstddef>
#include <vector>

#include "core/strategy.hpp"
#include "model/instance.hpp"

namespace idde::core {

class CodedDeliveryEvaluator {
 public:
  /// Snapshots the allocation (only each user's serving server matters).
  /// All requests start at the whole-item cloud latency — the empty
  /// coded sigma. With `collaborative` false, fragments only help users
  /// allocated to their own host server.
  CodedDeliveryEvaluator(const model::ProblemInstance& instance,
                         const AllocationProfile& allocation,
                         FragmentConfig config, bool collaborative = true);

  /// Rewinds to the empty sigma under a (possibly different) allocation,
  /// reusing every buffer — no allocation happens here.
  void reset(const AllocationProfile& allocation, bool collaborative = true);

  /// At k > 1 a fragment's gain can grow as other fragments of its item
  /// land, so the lazy greedy (core/lazy_greedy.hpp) rescans after every
  /// drain until a rescan finds nothing.
  static constexpr bool kRescanAfterDrain = true;

  [[nodiscard]] const FragmentConfig& config() const noexcept {
    return config_;
  }

  /// Total latency reduction (seconds) of adding one fragment of d_k on
  /// v_i, given all fragments committed so far. Never negative.
  [[nodiscard]] double gain_seconds(std::size_t server,
                                    std::size_t item) const;

  /// Commits the fragment: permanently lowers the affected requests'
  /// cached latencies. Returns the realised gain (== gain_seconds
  /// beforehand).
  double commit(std::size_t server, std::size_t item);

  [[nodiscard]] double total_latency_seconds() const noexcept {
    return total_latency_;
  }

  /// L_ave (Eq. 9) under coded delivery, seconds.
  [[nodiscard]] double average_latency_seconds() const;

  [[nodiscard]] std::size_t request_count() const noexcept {
    return request_user_.size();
  }

  /// Current coded Eq. 8 latency of one request, seconds. Requests are
  /// numbered user-major in `requests().items_of(j)` order — the same
  /// numbering DeliveryEvaluator uses.
  [[nodiscard]] double request_latency_seconds(std::size_t id) const {
    return request_latency_[id];
  }

 private:
  /// Coded Eq. 8 for one request: hosts = the item's committed hosts
  /// plus (optionally) `extra_host` (kNoExtra = none). Uses the mutable
  /// legs scratch; single-threaded like every evaluator in the repo.
  static constexpr std::size_t kNoExtra = static_cast<std::size_t>(-1);
  [[nodiscard]] double request_seconds(std::size_t id,
                                       std::size_t extra_host) const;

  const model::ProblemInstance* instance_;
  FragmentConfig config_;
  bool collaborative_;
  std::size_t data_count_;
  std::vector<std::size_t> serving_server_;
  // Flat request arrays (SoA), ids user-major, with a CSR index per item
  // — the same layout DeliveryEvaluator uses, so per-item gain
  // accumulation visits requests in the identical order.
  std::vector<std::size_t> request_user_;
  std::vector<std::size_t> request_item_;
  std::vector<double> request_latency_;  ///< current coded Eq. 8 value
  std::vector<std::size_t> request_serving_;
  std::vector<std::size_t> item_req_ids_;
  std::vector<std::size_t> item_req_offset_;
  /// Committed fragment hosts per item (ascending ids), flat K x N arena.
  std::vector<std::size_t> hosts_flat_;
  std::vector<std::size_t> host_count_;
  std::vector<double> frag_mb_;          ///< per item fragment size
  mutable std::vector<double> legs_;     ///< per-request kernel scratch
  double total_latency_ = 0.0;
};

}  // namespace idde::core
