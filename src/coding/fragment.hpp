// MDS fragment arithmetic for erasure-coded placement (DESIGN.md §16).
//
// An (n, k) code splits each item into equal-size fragments so that *any*
// k of the n distinct fragments reconstruct it. Placement stores at most
// one fragment per (server, item) — fragments on distinct servers are
// distinct by construction — and delivery collects the k cheapest
// surviving fragments, topping up from the cloud when fewer than k edge
// fragments are reachable. k = 1 is a repetition code: fragments are
// whole-item copies and every coded code path reduces bit-identically to
// the replication stack (core::DeliveryProfile, core::Eq8Resolver at k = 1).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/strategy.hpp"

namespace idde::coding {

/// The (n, k) shape of the code. n bounds how many distinct fragments of
/// one item exist (and hence how many servers may host it); k is the
/// reconstruction threshold. Replication is exactly {n, 1}.
struct FragmentConfig {
  std::size_t n = 1;  ///< distinct fragments available for placement
  std::size_t k = 1;  ///< fragments needed to reconstruct the item

  [[nodiscard]] bool valid() const noexcept { return k >= 1 && n >= k; }
  /// True when fragments are whole-item copies (the replication regime).
  [[nodiscard]] bool replication() const noexcept { return k == 1; }

  friend bool operator==(const FragmentConfig&,
                         const FragmentConfig&) = default;
};

/// Eq. 6 storage cost of one fragment, exact KB. Rounded *up* so k
/// fragments never account for less than the whole item (the
/// storage-conservative convention); equals the whole item's KB at k = 1.
[[nodiscard]] inline std::int64_t fragment_size_kb(double item_size_mb,
                                                   std::size_t k) {
  const std::int64_t item_kb = core::mb_to_kb(item_size_mb);
  const auto divisor = static_cast<std::int64_t>(k);
  return (item_kb + divisor - 1) / divisor;
}

/// Transfer size of one fragment (Eq. 8 latency math), MB. Exact at
/// k = 1 (x / 1.0 == x bitwise), so coded latencies replay replication's.
[[nodiscard]] inline double fragment_size_mb(double item_size_mb,
                                             std::size_t k) {
  return item_size_mb / static_cast<double>(k);
}

}  // namespace idde::coding
