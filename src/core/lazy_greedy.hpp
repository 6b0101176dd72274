// The one lazy greedy behind Phase 2 of IDDE-G (Algorithm 1, lines 22-26)
// and every sigma repair, for replication and for (n, k) coding.
//
// Starting from the still-usable placements of a standing sigma (none for
// a fresh plan), the loop repeatedly commits the placement sigma_{i,k}
// with the highest latency-reduction-per-MB ratio (Eq. 17) until nothing
// feasible improves or a placement budget runs out. The MB is the
// profile's per-placement size: the whole item under replication, one
// fragment under coding.
//
// Laziness: committed gains only shrink as sigma grows (submodularity, the
// property behind Theorem 6), so stale heap keys are valid upper bounds.
// Only the popped top is re-evaluated; it is either committed (still the
// best) or pushed back with its refreshed ratio. The naive greedy that
// re-scores all N*K candidates per step is the oracle in
// tests/oracles/naive_greedy.hpp.
//
// Rescans: under (n, k) coding with k > 1 a fragment's gain can *grow* as
// other fragments of its item land (the k-th-fastest leg shifts), so stale
// keys stop being upper bounds and the drain can end early. An evaluator
// whose gains may grow reports rescans_after_drain() (DeliveryEvaluator
// does at k > 1); the loop then re-scores every usable candidate after
// each drain until a rescan finds nothing. At k = 1 that rescan would be
// provably empty, so the loop stops after the first drain.
//
// Budget: the heap pops candidates in ratio order, so the first n
// placements of a run with budget n are the first n of an unbudgeted run,
// and repeated budgeted runs converge to the unbudgeted fixpoint.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/strategy.hpp"

namespace idde::core {

/// Gains at or below this are "no feasible improving decision".
inline constexpr double kMinGreedyGain = 1e-12;

/// Heap entry: ratio key (possibly a stale upper bound) plus the candidate.
struct GreedyCandidate {
  double ratio;
  std::size_t server;
  std::size_t item;

  bool operator<(const GreedyCandidate& other) const {
    return ratio < other.ratio;  // max-heap on ratio
  }
};

/// True when the replica (server, item) is unreadable even though its
/// server is up (silent corruption).
using ReplicaLost = std::function<bool(std::size_t, std::size_t)>;

/// A fresh plan's usable test: every server and every replica. Both checks
/// are constant, so they compile away.
struct EveryPlacementUsable {
  static constexpr bool server(std::size_t /*server*/) { return true; }
  static constexpr bool replica(std::size_t /*server*/, std::size_t /*item*/) {
    return true;
  }
};

/// A repair's usable test: the server is up (an empty mask means all up)
/// and the replica is not lost.
struct SurvivingPlacements {
  std::span<const std::uint8_t> server_up;
  const ReplicaLost& replica_lost;

  [[nodiscard]] bool server(std::size_t i) const {
    return server_up.empty() || server_up[i] != 0;
  }
  [[nodiscard]] bool replica(std::size_t i, std::size_t item) const {
    return !(replica_lost && replica_lost(i, item));
  }

  /// Users on dead servers have no radio channel for the outage: their
  /// requests go cloud-direct and must not attract repair placements.
  /// (Their slot is gone, not re-auctioned — channel reallocation is the
  /// game's job, not the repair's.)
  void mask(const AllocationProfile& allocation,
            AllocationProfile& effective) const {
    effective.assign(allocation.begin(), allocation.end());
    for (ChannelSlot& slot : effective) {
      if (slot.allocated() && !server(slot.server)) slot = kUnallocated;
    }
  }
};

/// What one run of the loop kept, scanned and committed.
struct GreedyRun {
  std::size_t lost_placements = 0;  ///< standing placements not usable
  std::size_t placements = 0;       ///< new placements committed
  std::size_t gain_evaluations = 0;
  std::size_t rescan_rounds = 0;        ///< heap fills that found candidates
  double recovered_gain_seconds = 0.0;  ///< latency the new placements removed
};

/// Runs the greedy into `sigma` (empty on entry, of the standing sigma's
/// shape) with `evaluator` rewound to the empty sigma. Keeps the usable
/// placements of `standing` (nullptr: nothing standing), then adds at most
/// `max_placements` new ones. `evaluator` is a DeliveryEvaluator, or any
/// type with its gain_seconds/commit/rescans_after_drain (tests substitute
/// an oracle-priced one). `heap` is caller-owned scratch: once its capacity
/// reaches N*K the loop allocates nothing per candidate or per committed
/// move.
template <class Evaluator, class Usable>
GreedyRun run_lazy_greedy(const DeliveryProfile* standing,
                          DeliveryProfile& sigma,
                          Evaluator& evaluator,
                          std::vector<GreedyCandidate>& heap,
                          const Usable& usable, std::size_t max_placements) {
  const std::size_t servers = sigma.server_count();
  const std::size_t items = sigma.data_count();
  GreedyRun run;
  if (standing != nullptr) {
    for (std::size_t k = 0; k < items; ++k) {
      for (const std::size_t i : standing->hosts(k)) {
        if (!usable.server(i) || !usable.replica(i, k)) {
          ++run.lost_placements;
          continue;
        }
        evaluator.commit(i, k);
        sigma.place(i, k);
      }
    }
  }

  // push_heap/pop_heap on the caller's vector run the same sift operations
  // std::priority_queue performs, hence the same pop order and the same
  // plan, with no per-move allocation.
  heap.clear();
  heap.reserve(servers * items);
  while (run.placements < max_placements) {
    bool refilled = false;
    for (std::size_t i = 0; i < servers; ++i) {
      if (!usable.server(i)) continue;
      for (std::size_t k = 0; k < items; ++k) {
        if (!usable.replica(i, k) || !sigma.can_place(i, k)) continue;
        const double gain = evaluator.gain_seconds(i, k);
        ++run.gain_evaluations;
        if (gain > kMinGreedyGain) {
          heap.push_back(GreedyCandidate{gain / sigma.placement_mb(k), i, k});
          std::push_heap(heap.begin(), heap.end());
          refilled = true;
        }
      }
    }
    if (!refilled) break;
    ++run.rescan_rounds;

    while (!heap.empty() && run.placements < max_placements) {
      const GreedyCandidate top = heap.front();
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
      // Storage only shrinks (and coding's n-cap only tightens), so a
      // now-infeasible candidate never returns.
      if (!sigma.can_place(top.server, top.item)) continue;
      const double gain = evaluator.gain_seconds(top.server, top.item);
      ++run.gain_evaluations;
      if (gain <= kMinGreedyGain) continue;  // decayed to nothing, drop
      const double ratio = gain / sigma.placement_mb(top.item);
      if (!heap.empty() && ratio < heap.front().ratio) {
        // Stale: the refreshed key is no longer the maximum.
        heap.push_back(GreedyCandidate{ratio, top.server, top.item});
        std::push_heap(heap.begin(), heap.end());
        continue;
      }
      evaluator.commit(top.server, top.item);
      sigma.place(top.server, top.item);
      ++run.placements;
      run.recovered_gain_seconds += gain;
    }
    if (!evaluator.rescans_after_drain()) break;
    heap.clear();  // a budget may have cut the drain short: rescan fresh
  }
  return run;
}

}  // namespace idde::core
