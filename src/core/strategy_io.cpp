#include "core/strategy_io.hpp"

#include <algorithm>

#include "util/format.hpp"

namespace idde::core {

using util::Json;
using util::JsonArray;
using util::JsonObject;

Json strategy_to_json(const Strategy& strategy) {
  JsonArray allocation;
  for (const ChannelSlot& slot : strategy.allocation) {
    if (!slot.allocated()) {
      allocation.emplace_back(nullptr);
    } else {
      allocation.emplace_back(JsonObject{
          {"server", Json(slot.server)},
          {"channel", Json(slot.channel)},
      });
    }
  }
  JsonArray placements;
  for (std::size_t k = 0; k < strategy.delivery.data_count(); ++k) {
    for (const std::size_t i : strategy.delivery.hosts(k)) {
      placements.emplace_back(JsonObject{
          {"server", Json(i)},
          {"item", Json(k)},
      });
    }
  }
  // Replication keeps its own tag and no "coding" block; every other
  // shape is written as a coded strategy.
  const FragmentConfig& shape = strategy.delivery.shape();
  const bool replication =
      shape == replication_shape(strategy.delivery.server_count());
  JsonObject document;
  document.emplace("format", replication ? kStrategyFormat : kCodedFormat);
  document.emplace("approach", strategy.approach_name);
  document.emplace("collaborative_delivery", strategy.collaborative_delivery);
  if (!replication) {
    document.emplace("coding", JsonObject{
                                   {"n", Json(shape.n)},
                                   {"k", Json(shape.k)},
                               });
  }
  document.emplace("allocation", std::move(allocation));
  document.emplace("placements", std::move(placements));
  return Json(std::move(document));
}

AllocationProfile allocation_from_json(const model::ProblemInstance& instance,
                                       const Json& json) {
  const auto& slots = json.as_array();
  if (slots.size() != instance.user_count()) {
    throw util::JsonError(util::format("allocation has {} slots, want {}",
                                       slots.size(), instance.user_count()));
  }
  AllocationProfile allocation(instance.user_count(), kUnallocated);
  for (std::size_t j = 0; j < slots.size(); ++j) {
    const Json& slot = slots[j];
    if (slot.is_null()) continue;
    allocation[j] = ChannelSlot{
        util::as_index(slot.at("server"), instance.server_count(),
                       "allocation server"),
        util::as_index(slot.at("channel"),
                       instance.radio_env().channels_per_server,
                       "allocation channel"),
    };
    const auto& covering = instance.covering_servers(j);
    if (!std::binary_search(covering.begin(), covering.end(),
                            allocation[j].server)) {
      throw util::JsonError(util::format(
          "allocation of user {} is on server {}, which does not cover it",
          j, allocation[j].server));
    }
  }
  return allocation;
}

FragmentConfig code_shape_from_json(const Json& json, FragmentConfig shape,
                                    std::size_t max_n) {
  if (const Json* n = json.find("n")) {
    shape.n = util::as_index(*n, max_n + 1, "coding n");
  }
  if (const Json* k = json.find("k")) {
    shape.k = util::as_index(*k, max_n + 1, "coding k");
  }
  if (!shape.valid()) {
    throw util::JsonError(util::format(
        "invalid code shape (n {}, k {}): need 1 <= k <= n", shape.n,
        shape.k));
  }
  return shape;
}

Strategy strategy_from_json(const model::ProblemInstance& instance,
                            const Json& json) {
  const std::string format = json.string_or("format", "");
  FragmentConfig shape = replication_shape(instance.server_count());
  if (format == kCodedFormat) {
    // n is capped by the server count (more fragments than servers can
    // never be placed); the invalid {0, 0} fallback makes both fields
    // required.
    shape = code_shape_from_json(json.at("coding"), FragmentConfig{0, 0},
                                 instance.server_count());
  } else if (format != kStrategyFormat) {
    throw util::JsonError(util::format(
        "unknown strategy format (want {} or {})", kStrategyFormat,
        kCodedFormat));
  }
  AllocationProfile allocation =
      allocation_from_json(instance, json.at("allocation"));

  DeliveryProfile delivery(instance, shape);
  for (const Json& placement : json.at("placements").as_array()) {
    const std::size_t server = util::as_index(
        placement.at("server"), instance.server_count(), "placement server");
    const std::size_t item = util::as_index(
        placement.at("item"), instance.data_count(), "placement item");
    // place() aborts on infeasibility; an untrusted document must not.
    if (!delivery.can_place(server, item)) {
      throw util::JsonError(util::format(
          "placement (server {}, item {}) is a duplicate, exceeds the item's "
          "n fragments, or exceeds storage",
          server, item));
    }
    delivery.place(server, item);
  }

  Strategy strategy{std::move(allocation), std::move(delivery)};
  strategy.approach_name = json.string_or("approach", "");
  strategy.collaborative_delivery =
      json.bool_or("collaborative_delivery", true);
  strategy.placements = strategy.delivery.placement_count();
  return strategy;
}

std::string strategy_to_string(const Strategy& strategy, int indent) {
  return strategy_to_json(strategy).dump(indent);
}

Strategy strategy_from_string(const model::ProblemInstance& instance,
                              const std::string& text) {
  return strategy_from_json(instance, Json::parse(text));
}

}  // namespace idde::core
