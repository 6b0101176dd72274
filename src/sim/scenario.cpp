#include "sim/scenario.hpp"

#include "core/strategy_io.hpp"

namespace idde::sim {

using util::Json;
using util::JsonObject;

Json params_to_json(const model::InstanceParams& params) {
  return util::config_to_json(params);
}

model::InstanceParams params_from_json(const Json& json) {
  return util::config_from_json<model::InstanceParams>(json);
}

std::string params_to_string(const model::InstanceParams& params, int indent) {
  return params_to_json(params).dump(indent);
}

model::InstanceParams params_from_string(const std::string& text) {
  return params_from_json(util::Json::parse(text));
}

Json fault_profile_to_json(const fault::FaultProfile& profile) {
  return util::config_to_json(profile);
}

Json fragment_config_to_json(const core::FragmentConfig& config) {
  return Json(JsonObject{
      {"n", Json(config.n)},
      {"k", Json(config.k)},
  });
}

core::FragmentConfig fragment_config_from_json(const Json& json) {
  return core::code_shape_from_json(json, core::FragmentConfig{},
                                    core::kMaxCodeLength);
}

}  // namespace idde::sim
