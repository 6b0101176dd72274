#include "solver/placement_bnb.hpp"

#include <numeric>
#include <utility>
#include <vector>

#include "core/resolver.hpp"
#include "util/assert.hpp"

namespace idde::solver {

namespace {

using core::AllocationProfile;
using core::ChannelSlot;
using core::DeliveryProfile;

class BnbContext {
 public:
  BnbContext(const model::ProblemInstance& instance,
             const AllocationProfile& allocation,
             const util::Deadline& deadline)
      : instance_(instance),
        deadline_(deadline),
        result_{DeliveryProfile(instance), 0.0, 0, false} {
    // Serving server per user.
    std::vector<std::size_t> serving;
    serving.reserve(instance.user_count());
    for (const ChannelSlot& slot : allocation) {
      serving.push_back(slot.allocated() ? slot.server : ChannelSlot::kNone);
    }
    // Absolute lower bound on the total latency any placement can reach:
    // every request relaxed to its cheapest conceivable source, i.e. Eq. 8
    // with every server a replica host (storage ignored). Admissible, so
    // pruning with it preserves optimality.
    std::vector<std::size_t> every_server(instance.server_count());
    std::iota(every_server.begin(), every_server.end(), std::size_t{0});
    core::Eq8Resolver resolver(instance);
    const auto& requests = instance.requests();
    floor_sum_ = 0.0;
    for (std::size_t j = 0; j < instance.user_count(); ++j) {
      for (const std::size_t k : requests.items_of(j)) {
        const double size = instance.data(k).size_mb;
        floor_sum_ += resolver
                          .estimate({.hosts = every_server,
                                     .serving = serving[j],
                                     .item_mb = size,
                                     .fragment_mb = size})
                          .seconds;
      }
    }
    // Branch in model order (sigma_{1,1} ... sigma_{N,K}), matching the
    // variable order an untuned CP model would dive on.
    decisions_.reserve(instance.server_count() * instance.data_count());
    for (std::size_t i = 0; i < instance.server_count(); ++i) {
      for (std::size_t k = 0; k < instance.data_count(); ++k) {
        decisions_.emplace_back(i, k);
      }
    }
    core::DeliveryEvaluator root(instance, allocation);
    result_.total_latency_seconds = root.total_latency_seconds() + 1.0;
    DeliveryProfile profile(instance);
    recurse(profile, root, 0);
    if (!deadline_.expired()) result_.proven_optimal = true;
  }

  PlacementSearchResult take() && { return std::move(result_); }

 private:
  void recurse(DeliveryProfile& profile, core::DeliveryEvaluator& evaluator,
               std::size_t depth) {
    ++result_.nodes_explored;
    if (evaluator.total_latency_seconds() < result_.total_latency_seconds) {
      result_.total_latency_seconds = evaluator.total_latency_seconds();
      result_.delivery = profile;
    }
    if (depth == decisions_.size() || deadline_.expired()) return;
    if (floor_sum_ >= result_.total_latency_seconds) return;  // optimal hit

    const auto [i, k] = decisions_[depth];
    if (profile.can_place(i, k)) {
      // Commits are not undoable, so branch on copies ("place" first —
      // the diving heuristic that produces the first incumbents).
      core::DeliveryEvaluator taken = evaluator;
      DeliveryProfile taken_profile = profile;
      taken.commit(i, k);
      taken_profile.place(i, k);
      recurse(taken_profile, taken, depth + 1);
    }
    recurse(profile, evaluator, depth + 1);
  }

  const model::ProblemInstance& instance_;
  const util::Deadline& deadline_;
  std::vector<std::pair<std::size_t, std::size_t>> decisions_;
  double floor_sum_ = 0.0;
  PlacementSearchResult result_;
};

}  // namespace

PlacementSearchResult placement_branch_and_bound(
    const model::ProblemInstance& instance,
    const core::AllocationProfile& allocation,
    const util::Deadline& deadline) {
  return BnbContext(instance, allocation, deadline).take();
}

}  // namespace idde::solver
