// The two halves of an IDDE strategy (Definitions 1 and 2):
//  - AllocationProfile alpha: one ChannelSlot per user,
//  - DeliveryProfile sigma: the set of (server, item) placements under an
//    (n, k) code shape, tracked together with per-server storage headroom.
//    Replication is the (N, 1) shape: every placement is a whole-item copy.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "model/instance.hpp"
#include "radio/interference.hpp"

namespace idde::core {

using radio::ChannelSlot;
using radio::kUnallocated;

/// alpha = {alpha_1 .. alpha_M}; alpha_j = kUnallocated encodes (0,0).
using AllocationProfile = std::vector<ChannelSlot>;

/// Storage quantum for Eq. 6 accounting: sizes and capacities are tracked
/// in whole KB (rounded to nearest) so place/remove sequences are exact
/// integer arithmetic — replaying placements in any order reproduces the
/// same headroom bit-for-bit, with no float drift.
[[nodiscard]] inline std::int64_t mb_to_kb(double mb) {
  return std::llround(mb * 1024.0);
}

/// The largest code length n a shape may have. k <= n < 2^32 keeps the
/// ceil division in fragment_size_kb (item_kb + k - 1) far inside int64
/// for every item size mb_to_kb represents exactly (below 2^53 KB).
inline constexpr std::size_t kMaxCodeLength = std::size_t{1} << 32;

/// The (n, k) shape of an MDS erasure code (DESIGN.md §16): an item splits
/// into equal fragments so that *any* k of its n distinct fragments
/// reconstruct it. n bounds how many servers may host a fragment of one
/// item; k is the reconstruction threshold. k = 1 is a repetition code:
/// fragments are whole-item copies, and (N, 1) is plain replication.
struct FragmentConfig {
  std::size_t n = 1;  ///< distinct fragments available for placement
  std::size_t k = 1;  ///< fragments needed to reconstruct the item

  [[nodiscard]] bool valid() const noexcept {
    return k >= 1 && n >= k && n <= kMaxCodeLength;
  }

  friend bool operator==(const FragmentConfig&,
                         const FragmentConfig&) = default;
};

/// The replication shape over `servers` servers: (N, 1), so no item's
/// host count is capped below the server count.
[[nodiscard]] inline FragmentConfig replication_shape(std::size_t servers) {
  return {std::max<std::size_t>(servers, 1), 1};
}

/// Eq. 6 storage cost of one fragment, exact KB. Rounded *up* so k
/// fragments never account for less than the whole item (the
/// storage-conservative convention); equals the whole item's KB at k = 1.
[[nodiscard]] inline std::int64_t fragment_size_kb(double item_size_mb,
                                                   std::size_t k) {
  const std::int64_t item_kb = mb_to_kb(item_size_mb);
  const auto divisor = static_cast<std::int64_t>(k);
  return (item_kb + divisor - 1) / divisor;
}

/// Transfer size of one fragment (Eq. 8 latency math), MB. Exact at
/// k = 1 (x / 1.0 == x bitwise), so coded latencies replay replication's.
[[nodiscard]] inline double fragment_size_mb(double item_size_mb,
                                             std::size_t k) {
  return item_size_mb / static_cast<double>(k);
}

/// sigma = {sigma_{i,k}} with the storage constraint (Eq. 6) enforced at
/// every mutation. The cloud's implicit replicas (Eq. 7) are not stored.
/// Under a shape with k > 1 each flag means "server i holds one of the n
/// distinct fragments of d_k": Eq. 6 charges the fragment's exact KB and
/// an item has at most n hosts.
class DeliveryProfile {
 public:
  /// Replication: shape replication_shape(instance.server_count()).
  explicit DeliveryProfile(const model::ProblemInstance& instance);
  DeliveryProfile(const model::ProblemInstance& instance,
                  FragmentConfig shape);

  [[nodiscard]] const FragmentConfig& shape() const noexcept {
    return shape_;
  }

  /// True iff sigma_{i,k} = 1.
  [[nodiscard]] bool placed(std::size_t server, std::size_t item) const {
    return flags_[server * data_count_ + item];
  }

  /// Whether placing d_k on v_i would respect Eq. (6), is not a duplicate
  /// placement and keeps the item within its n fragments.
  [[nodiscard]] bool can_place(std::size_t server, std::size_t item) const;

  /// Sets sigma_{i,k} = 1. Aborts if infeasible — callers must check.
  void place(std::size_t server, std::size_t item);

  /// Clears sigma_{i,k} = 0, returning the placement's KB to the server's
  /// headroom. Aborts if the placement does not exist — callers must
  /// check placed(). Because accounting is exact integer KB, any
  /// place/remove sequence leaves headroom identical to recomputing it
  /// from the surviving placements.
  void remove(std::size_t server, std::size_t item);

  /// Remaining reserved space on v_i (MB). Derived from the exact KB
  /// ledger: a pure function of the current placement set.
  [[nodiscard]] double free_mb(std::size_t server) const {
    return static_cast<double>(free_kb_[server]) / 1024.0;
  }

  /// Remaining reserved space on v_i in exact KB.
  [[nodiscard]] std::int64_t free_kb(std::size_t server) const {
    return free_kb_[server];
  }

  /// Storage one placement of d_k takes (MB): the Eq. 17 denominator, one
  /// fragment (the whole item at k = 1, bit for bit).
  [[nodiscard]] double placement_mb(std::size_t item) const {
    return item_mb_[item];
  }

  /// Servers currently hosting d_k (ascending ids).
  [[nodiscard]] std::span<const std::size_t> hosts(std::size_t item) const {
    return {hosts_flat_.data() + item * free_kb_.size(), host_count_[item]};
  }

  [[nodiscard]] std::size_t placement_count() const noexcept { return count_; }
  [[nodiscard]] std::size_t server_count() const noexcept {
    return free_kb_.size();
  }
  [[nodiscard]] std::size_t data_count() const noexcept { return data_count_; }

  /// Rebuilds a profile from a placement list. Headroom is recomputed
  /// from the placements — integer-KB accounting makes replay
  /// order-independent, so the rebuilt profile is bit-identical to the
  /// original regardless of the order the placements were recorded in.
  /// Placements must be feasible and duplicate-free (checked).
  [[nodiscard]] static DeliveryProfile restore(
      const model::ProblemInstance& instance, FragmentConfig shape,
      std::span<const std::pair<std::size_t, std::size_t>> placements);

 private:
  FragmentConfig shape_;
  std::size_t data_count_;
  std::vector<bool> flags_;             // N x K
  std::vector<std::int64_t> free_kb_;   // per server, exact KB ledger
  std::vector<std::int64_t> item_kb_;   // per item, quantized fragment size
  std::vector<double> item_mb_;         // per item, fragment size
  /// Host lists as a flat K x N arena: item k's hosts occupy
  /// hosts_flat_[k*N .. k*N + host_count_[k]), ascending. An item can have
  /// at most N hosts, so the segments never overflow and place() is a
  /// shift-insert with no allocation — the planners call it once per
  /// committed placement inside their hot loops.
  std::vector<std::size_t> hosts_flat_;   // K x N
  std::vector<std::size_t> host_count_;   // per item
  std::size_t count_ = 0;
};

/// A complete IDDE strategy plus solver diagnostics.
struct Strategy {
  Strategy(AllocationProfile alloc, DeliveryProfile del)
      : allocation(std::move(alloc)), delivery(std::move(del)) {}

  AllocationProfile allocation;
  DeliveryProfile delivery;
  /// Whether the scheme implements edge-server collaboration at delivery
  /// time. Approaches whose delivery plane cannot fetch from neighbouring
  /// edge servers (CDP, DUP-G — see Section 4.1/5 of the paper) serve a
  /// request from the user's own server or the cloud only; Eq. 8's full
  /// min applies when true.
  bool collaborative_delivery = true;
  // Diagnostics, filled by the producing approach.
  std::string approach_name;
  std::size_t game_rounds = 0;    ///< Phase-1 best-response rounds
  std::size_t game_moves = 0;     ///< applied allocation updates
  bool game_converged = true;     ///< false if the round cap was hit
  std::size_t placements = 0;     ///< Phase-2 placements taken
};

}  // namespace idde::core
