// CodedDeliveryProfile: the erasure-coded generalization of the paper's
// delivery profile sigma (Definition 2). Instead of whole-item 0/1
// replication, each (server, item) flag means "server i holds one of the
// n distinct fragments of d_k"; the Eq. 6 storage constraint charges the
// fragment's exact KB and the host count per item is capped at n. At
// k = 1 the fragment is the whole item and the profile replays
// core::DeliveryProfile bit-identically (same feasibility decisions, same
// integer-KB ledger).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "coding/fragment.hpp"
#include "core/strategy.hpp"
#include "model/instance.hpp"

namespace idde::coding {

class CodedDeliveryProfile {
 public:
  CodedDeliveryProfile(const model::ProblemInstance& instance,
                       FragmentConfig config);

  [[nodiscard]] const FragmentConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const model::ProblemInstance& instance() const noexcept {
    return *instance_;
  }

  /// True iff server i holds a fragment of d_k.
  [[nodiscard]] bool placed(std::size_t server, std::size_t item) const {
    return flags_[server * data_count_ + item];
  }

  /// Whether placing a fragment of d_k on v_i respects the fragment-size
  /// Eq. 6 headroom, is not a duplicate, and keeps the item within its n
  /// distinct fragments.
  [[nodiscard]] bool can_place(std::size_t server, std::size_t item) const;

  /// Places one fragment. Aborts if infeasible — callers must check.
  void place(std::size_t server, std::size_t item);

  /// Removes a fragment, returning its KB to the server's headroom.
  /// Aborts if the placement does not exist — callers must check.
  void remove(std::size_t server, std::size_t item);

  /// Remaining headroom on v_i (MB / exact KB) — a pure function of the
  /// current placement set, as in core::DeliveryProfile.
  [[nodiscard]] double free_mb(std::size_t server) const {
    return static_cast<double>(free_kb_[server]) / 1024.0;
  }
  [[nodiscard]] std::int64_t free_kb(std::size_t server) const {
    return free_kb_[server];
  }

  /// Servers holding a fragment of d_k (ascending ids).
  [[nodiscard]] std::span<const std::size_t> hosts(std::size_t item) const {
    return {hosts_flat_.data() + item * free_kb_.size(), host_count_[item]};
  }
  [[nodiscard]] std::size_t fragment_count(std::size_t item) const {
    return host_count_[item];
  }

  /// Per-item fragment sizes (quantized at construction).
  [[nodiscard]] std::int64_t item_fragment_kb(std::size_t item) const {
    return frag_kb_[item];
  }
  [[nodiscard]] double item_fragment_mb(std::size_t item) const {
    return frag_mb_[item];
  }
  /// Storage one placement of d_k takes (MB): the coded Eq. 17
  /// denominator, one fragment.
  [[nodiscard]] double placement_mb(std::size_t item) const {
    return frag_mb_[item];
  }

  [[nodiscard]] std::size_t placement_count() const noexcept { return count_; }
  [[nodiscard]] std::size_t server_count() const noexcept {
    return free_kb_.size();
  }
  [[nodiscard]] std::size_t data_count() const noexcept { return data_count_; }

  /// Rebuilds a profile from a placement list; headroom is recomputed
  /// (the integer-KB ledger is replay-order-independent). Placements must
  /// be feasible and duplicate-free (checked via place()).
  [[nodiscard]] static CodedDeliveryProfile restore(
      const model::ProblemInstance& instance, FragmentConfig config,
      std::span<const std::pair<std::size_t, std::size_t>> placements);

 private:
  const model::ProblemInstance* instance_;
  FragmentConfig config_;
  std::size_t data_count_;
  std::vector<bool> flags_;            // N x K
  std::vector<std::int64_t> free_kb_;  // per server, exact KB ledger
  std::vector<std::int64_t> frag_kb_;  // per item
  std::vector<double> frag_mb_;        // per item
  /// Host lists as a flat K x N arena (same shift-insert discipline as
  /// core::DeliveryProfile — no allocation per committed placement).
  std::vector<std::size_t> hosts_flat_;  // K x N
  std::vector<std::size_t> host_count_;  // per item
  std::size_t count_ = 0;
};

/// A complete coded IDDE strategy: the game's allocation plus the coded
/// delivery plane.
struct CodedStrategy {
  CodedStrategy(core::AllocationProfile alloc, CodedDeliveryProfile del)
      : allocation(std::move(alloc)), delivery(std::move(del)) {}

  core::AllocationProfile allocation;
  CodedDeliveryProfile delivery;
  /// Same semantics as core::Strategy — when false, only the user's own
  /// server may serve fragments (local-or-cloud delivery).
  bool collaborative_delivery = true;
  std::string approach_name;
  std::size_t placements = 0;
};

}  // namespace idde::coding
