#include "core/validation.hpp"

#include <algorithm>

#include "util/format.hpp"

namespace idde::core {

std::vector<std::string> validate_strategy(
    const model::ProblemInstance& instance, const Strategy& strategy) {
  std::vector<std::string> problems;
  const auto complain = [&problems](std::string message) {
    problems.push_back(std::move(message));
  };

  if (strategy.allocation.size() != instance.user_count()) {
    complain("allocation profile size mismatch");
    return problems;
  }

  const std::size_t channels = instance.radio_env().channels_per_server;
  for (std::size_t j = 0; j < strategy.allocation.size(); ++j) {
    const ChannelSlot slot = strategy.allocation[j];
    if (!slot.allocated()) continue;
    if (slot.server >= instance.server_count()) {
      complain(util::format("user {} allocated to unknown server {}", j,
                            slot.server));
      continue;
    }
    if (slot.channel >= channels) {
      complain(util::format("user {} allocated to unknown channel {}", j,
                            slot.channel));
    }
    const auto& covering = instance.covering_servers(j);
    if (!std::binary_search(covering.begin(), covering.end(), slot.server)) {
      complain(util::format(
          "user {} allocated to server {} outside its coverage (Eq. 1)", j,
          slot.server));
    }
  }

  // Eq. (6), recomputed from scratch: each placement stores one fragment
  // (the whole item at k = 1).
  std::vector<double> used(instance.server_count(), 0.0);
  for (std::size_t k = 0; k < instance.data_count(); ++k) {
    for (const std::size_t i : strategy.delivery.hosts(k)) {
      if (i >= instance.server_count()) {
        complain(util::format("item {} placed on unknown server {}", k, i));
        continue;
      }
      if (!strategy.delivery.placed(i, k)) {
        complain(util::format("host list/flag mismatch for item {}", k));
      }
      used[i] += strategy.delivery.placement_mb(k);
    }
  }
  for (std::size_t i = 0; i < instance.server_count(); ++i) {
    if (used[i] > instance.server(i).storage_mb + 1e-6) {
      complain(util::format(
          "server {} stores {} MB but reserved only {} MB (Eq. 6)", i, used[i],
          instance.server(i).storage_mb));
    }
  }
  return problems;
}

}  // namespace idde::core
