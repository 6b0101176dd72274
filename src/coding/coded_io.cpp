#include "coding/coded_io.hpp"

#include "core/strategy_io.hpp"
#include "util/format.hpp"

namespace idde::coding {

using util::Json;
using util::JsonArray;
using util::JsonObject;

Json coded_strategy_to_json(const CodedStrategy& strategy) {
  JsonArray allocation;
  for (const core::ChannelSlot& slot : strategy.allocation) {
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
  JsonObject document;
  document.emplace("format", "idde-coded-strategy-v1");
  document.emplace("approach", strategy.approach_name);
  document.emplace("collaborative_delivery", strategy.collaborative_delivery);
  document.emplace("coding", JsonObject{
                                 {"n", Json(strategy.delivery.config().n)},
                                 {"k", Json(strategy.delivery.config().k)},
                             });
  document.emplace("allocation", std::move(allocation));
  document.emplace("placements", std::move(placements));
  return Json(std::move(document));
}

CodedStrategy coded_strategy_from_json(const model::ProblemInstance& instance,
                                       const Json& json) {
  if (json.string_or("format", "") != "idde-coded-strategy-v1") {
    throw util::JsonError(
        "unknown coded strategy format (want idde-coded-strategy-v1)");
  }
  const Json& coding = json.at("coding");
  FragmentConfig config;
  // n is capped by the server count (more fragments than servers can
  // never be placed) and k by n; both must be at least 1.
  config.n = util::as_index(coding.at("n"), instance.server_count() + 1,
                            "coding n");
  config.k = util::as_index(coding.at("k"), config.n + 1, "coding k");
  if (config.k < 1 || !config.valid()) {
    throw util::JsonError(util::format(
        "invalid code shape (n {}, k {}): need 1 <= k <= n", config.n,
        config.k));
  }

  core::AllocationProfile allocation =
      core::allocation_from_json(instance, json.at("allocation"));

  CodedDeliveryProfile delivery(instance, config);
  for (const Json& placement : json.at("placements").as_array()) {
    const std::size_t server = util::as_index(
        placement.at("server"), instance.server_count(), "placement server");
    const std::size_t item = util::as_index(
        placement.at("item"), instance.data_count(), "placement item");
    // place() aborts on infeasibility; an untrusted document must not.
    if (!delivery.can_place(server, item)) {
      throw util::JsonError(util::format(
          "fragment (server {}, item {}) is a duplicate, exceeds the item's "
          "n fragments, or exceeds storage",
          server, item));
    }
    delivery.place(server, item);
  }

  CodedStrategy strategy{std::move(allocation), std::move(delivery)};
  strategy.approach_name = json.string_or("approach", "");
  strategy.collaborative_delivery =
      json.bool_or("collaborative_delivery", true);
  strategy.placements = strategy.delivery.placement_count();
  return strategy;
}

std::string coded_strategy_to_string(const CodedStrategy& strategy,
                                     int indent) {
  return coded_strategy_to_json(strategy).dump(indent);
}

CodedStrategy coded_strategy_from_string(const model::ProblemInstance& instance,
                                         const std::string& text) {
  return coded_strategy_from_json(instance, Json::parse(text));
}

}  // namespace idde::coding
