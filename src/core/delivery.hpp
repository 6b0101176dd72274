// DeliveryEvaluator: incremental evaluation of total delivery latency under
// a fixed user allocation and (n, k) code shape. It is the work-horse of
// Phase 2 — the greedy planner asks "how much total latency would placing
// d_k (one fragment of it under coding) on v_i remove?" thousands of times,
// so each request caches its current Eq. 8 latency and a candidate is
// scored by a single pass over the item's requests.
//
// At k = 1 (replication) a placement lowers each request to
// min(cached, new leg), so the pass is one multiply and compare per
// request. At k > 1 adding a fragment can shift the k-th-fastest leg, so
// the evaluator tracks each item's committed hosts and prices every request
// through core::Eq8Resolver over those hosts plus the candidate. A k = 1
// evaluator holds none of that state, so copying it (the exact solvers
// copy one per branch) stays as cheap as before.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/resolver.hpp"
#include "core/strategy.hpp"
#include "model/instance.hpp"

namespace idde::core {

class DeliveryEvaluator {
 public:
  /// Snapshots the allocation (only the serving server of each user
  /// matters for latency). All requests start at the whole-item cloud
  /// latency, i.e. the empty sigma. With `collaborative` false, a replica
  /// (or fragment) only helps the users allocated to its own server
  /// (local-or-cloud delivery — the semantics of the non-collaborative
  /// baselines). This overload is replication, shape (N, 1).
  DeliveryEvaluator(const model::ProblemInstance& instance,
                    const AllocationProfile& allocation,
                    bool collaborative = true);

  /// As above under the (n, k) code shape `shape`: a placement is one
  /// fragment of fragment_size_mb(size, k). Only k matters here — the
  /// n-cap is the profile's.
  DeliveryEvaluator(const model::ProblemInstance& instance,
                    const AllocationProfile& allocation, FragmentConfig shape,
                    bool collaborative = true);

  /// Rewinds to the empty sigma under a (possibly different) allocation
  /// and shape. The request structure depends only on the instance, and
  /// the fragment sizes are recomputed in place, so once the evaluator has
  /// seen a shape with k > 1 no allocation happens here. After reset() the
  /// evaluator is indistinguishable from a freshly constructed one — the
  /// planner keeps one evaluator instead of building one per plan.
  void reset(const AllocationProfile& allocation, FragmentConfig shape,
             bool collaborative = true);

  /// At k = 1 gains only shrink as sigma grows (Eq. 8 is a min), so the
  /// lazy greedy (core/lazy_greedy.hpp) never needs to rescan after its
  /// heap drains. At k > 1 a fragment's gain can grow as other fragments of
  /// its item land, so the greedy rescans until a rescan finds nothing.
  [[nodiscard]] bool rescans_after_drain() const noexcept {
    return shape_.k > 1;
  }

  /// Total latency reduction (seconds) of adding sigma_{i,k} (one fragment
  /// of d_k at k > 1), given all placements committed so far. Never
  /// negative (Eq. 8 takes the min). The placement must not be committed
  /// yet.
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
  /// k > 1: prices every request of `item` through the resolver over the
  /// committed hosts plus `server`, calls `improve(id, seconds)` for each
  /// request the fragment speeds up and returns the summed gain.
  template <class Improve>
  double coded_gain_seconds(std::size_t server, std::size_t item,
                            Improve improve) const;

  /// k > 1: the item's committed hosts with `server` inserted, ascending,
  /// in the candidate_hosts_ scratch.
  std::span<const std::size_t> hosts_with(std::size_t server,
                                          std::size_t item) const;

  const model::ProblemInstance* instance_;
  FragmentConfig shape_;
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

  // k > 1 state, built the first time the evaluator sees k > 1: an
  // evaluator constructed for replication holds none of it. The mutable
  // members are the const gain pass's scratch, so one evaluator must not
  // be shared between threads (no caller does).
  std::vector<double> fragment_mb_;  ///< per item
  /// Committed hosts per item (ascending ids), flat K x N arena.
  std::vector<std::size_t> hosts_flat_;
  std::vector<std::size_t> host_count_;
  mutable std::vector<std::size_t> candidate_hosts_;  ///< hosts_with scratch
  mutable std::optional<Eq8Resolver> resolver_;
};

/// Convenience: evaluates a complete strategy's total latency from scratch
/// by committing every placement of `delivery`, in item order, into an
/// evaluator of its shape.
[[nodiscard]] double total_latency_seconds(
    const model::ProblemInstance& instance, const AllocationProfile& allocation,
    const DeliveryProfile& delivery, bool collaborative = true);

}  // namespace idde::core
