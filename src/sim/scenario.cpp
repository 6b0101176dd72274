#include "sim/scenario.hpp"

#include "core/strategy_io.hpp"

namespace idde::sim {

using util::Json;
using util::JsonArray;
using util::JsonObject;

Json params_to_json(const model::InstanceParams& p) {
  JsonObject eua{
      {"server_count", Json(p.eua.server_count)},
      {"user_count", Json(p.eua.user_count)},
      {"area_side_m", Json(p.eua.area_side_m)},
      {"min_coverage_radius_m", Json(p.eua.min_coverage_radius_m)},
      {"max_coverage_radius_m", Json(p.eua.max_coverage_radius_m)},
      {"server_jitter_m", Json(p.eua.server_jitter_m)},
      {"user_cluster_stddev_m", Json(p.eua.user_cluster_stddev_m)},
      {"user_background_fraction", Json(p.eua.user_background_fraction)},
  };
  JsonArray sizes;
  for (const double s : p.data_size_choices_mb) sizes.emplace_back(s);
  JsonObject document{
      {"server_count", Json(p.server_count)},
      {"user_count", Json(p.user_count)},
      {"data_count", Json(p.data_count)},
      {"density", Json(p.density)},
      {"channels_per_server", Json(p.channels_per_server)},
      {"channel_bandwidth_mbps", Json(p.channel_bandwidth_mbps)},
      {"noise_dbm", Json(p.noise_dbm)},
      {"min_power_watts", Json(p.min_power_watts)},
      {"max_power_watts", Json(p.max_power_watts)},
      {"pathloss_eta", Json(p.pathloss_eta)},
      {"pathloss_exponent", Json(p.pathloss_exponent)},
      {"shadowing_stddev_db", Json(p.shadowing_stddev_db)},
      {"min_max_rate_mbps", Json(p.min_max_rate_mbps)},
      {"max_max_rate_mbps", Json(p.max_max_rate_mbps)},
      {"min_storage_mb", Json(p.min_storage_mb)},
      {"max_storage_mb", Json(p.max_storage_mb)},
      {"min_link_speed_mbps", Json(p.min_link_speed_mbps)},
      {"max_link_speed_mbps", Json(p.max_link_speed_mbps)},
      {"cloud_speed_mbps", Json(p.cloud_speed_mbps)},
      {"zipf_exponent", Json(p.zipf_exponent)},
      {"extra_request_prob", Json(p.extra_request_prob)},
      {"max_requests_per_user", Json(p.max_requests_per_user)},
  };
  document.emplace("data_size_choices_mb", std::move(sizes));
  document.emplace("eua", std::move(eua));
  return Json(std::move(document));
}

namespace {

/// No instance comes near 2^32 of anything; the cap keeps a count's error
/// message readable.
constexpr std::size_t kMaxCount = std::size_t{1} << 32;

/// A count read as a checked index: a negative or oversized value fails
/// with its key's name instead of wrapping to a huge size_t.
std::size_t count_or(const Json& object, std::string_view key,
                     std::size_t fallback) {
  const Json* found = object.find(key);
  return found != nullptr && found->is_number()
             ? util::as_index(*found, kMaxCount, key)
             : fallback;
}

}  // namespace

model::InstanceParams params_from_json(const Json& json) {
  model::InstanceParams p;
  p.server_count = count_or(json, "server_count", p.server_count);
  p.user_count = count_or(json, "user_count", p.user_count);
  p.data_count = count_or(json, "data_count", p.data_count);
  p.density = json.number_or("density", p.density);
  p.channels_per_server =
      count_or(json, "channels_per_server", p.channels_per_server);
  p.channel_bandwidth_mbps =
      json.number_or("channel_bandwidth_mbps", p.channel_bandwidth_mbps);
  p.noise_dbm = json.number_or("noise_dbm", p.noise_dbm);
  p.min_power_watts = json.number_or("min_power_watts", p.min_power_watts);
  p.max_power_watts = json.number_or("max_power_watts", p.max_power_watts);
  p.pathloss_eta = json.number_or("pathloss_eta", p.pathloss_eta);
  p.pathloss_exponent =
      json.number_or("pathloss_exponent", p.pathloss_exponent);
  p.shadowing_stddev_db =
      json.number_or("shadowing_stddev_db", p.shadowing_stddev_db);
  p.min_max_rate_mbps =
      json.number_or("min_max_rate_mbps", p.min_max_rate_mbps);
  p.max_max_rate_mbps =
      json.number_or("max_max_rate_mbps", p.max_max_rate_mbps);
  if (const Json* sizes = json.find("data_size_choices_mb");
      sizes != nullptr && sizes->is_array() && !sizes->as_array().empty()) {
    p.data_size_choices_mb.clear();
    for (const Json& s : sizes->as_array()) {
      if (s.is_number()) p.data_size_choices_mb.push_back(s.as_number());
    }
  }
  p.min_storage_mb = json.number_or("min_storage_mb", p.min_storage_mb);
  p.max_storage_mb = json.number_or("max_storage_mb", p.max_storage_mb);
  p.min_link_speed_mbps =
      json.number_or("min_link_speed_mbps", p.min_link_speed_mbps);
  p.max_link_speed_mbps =
      json.number_or("max_link_speed_mbps", p.max_link_speed_mbps);
  p.cloud_speed_mbps = json.number_or("cloud_speed_mbps", p.cloud_speed_mbps);
  p.zipf_exponent = json.number_or("zipf_exponent", p.zipf_exponent);
  p.extra_request_prob =
      json.number_or("extra_request_prob", p.extra_request_prob);
  p.max_requests_per_user =
      count_or(json, "max_requests_per_user", p.max_requests_per_user);
  if (const Json* eua = json.find("eua"); eua != nullptr && eua->is_object()) {
    p.eua.server_count = count_or(*eua, "server_count", p.eua.server_count);
    p.eua.user_count = count_or(*eua, "user_count", p.eua.user_count);
    p.eua.area_side_m = eua->number_or("area_side_m", p.eua.area_side_m);
    p.eua.min_coverage_radius_m =
        eua->number_or("min_coverage_radius_m", p.eua.min_coverage_radius_m);
    p.eua.max_coverage_radius_m =
        eua->number_or("max_coverage_radius_m", p.eua.max_coverage_radius_m);
    p.eua.server_jitter_m =
        eua->number_or("server_jitter_m", p.eua.server_jitter_m);
    p.eua.user_cluster_stddev_m =
        eua->number_or("user_cluster_stddev_m", p.eua.user_cluster_stddev_m);
    p.eua.user_background_fraction = eua->number_or(
        "user_background_fraction", p.eua.user_background_fraction);
  }
  return p;
}

std::string params_to_string(const model::InstanceParams& params, int indent) {
  return params_to_json(params).dump(indent);
}

model::InstanceParams params_from_string(const std::string& text) {
  return params_from_json(util::Json::parse(text));
}

Json fault_profile_to_json(const fault::FaultProfile& profile) {
  return Json(JsonObject{
      {"horizon_s", Json(profile.horizon_s)},
      {"server_mtbf_s", Json(profile.server_mtbf_s)},
      {"server_mttr_s", Json(profile.server_mttr_s)},
      {"link_mtbf_s", Json(profile.link_mtbf_s)},
      {"link_mttr_s", Json(profile.link_mttr_s)},
      {"cloud_mtbf_s", Json(profile.cloud_mtbf_s)},
      {"cloud_mttr_s", Json(profile.cloud_mttr_s)},
      {"replica_corruption_prob", Json(profile.replica_corruption_prob)},
  });
}

fault::FaultProfile fault_profile_from_json(const Json& json) {
  fault::FaultProfile profile;
  profile.horizon_s = json.number_or("horizon_s", profile.horizon_s);
  profile.server_mtbf_s =
      json.number_or("server_mtbf_s", profile.server_mtbf_s);
  profile.server_mttr_s =
      json.number_or("server_mttr_s", profile.server_mttr_s);
  profile.link_mtbf_s = json.number_or("link_mtbf_s", profile.link_mtbf_s);
  profile.link_mttr_s = json.number_or("link_mttr_s", profile.link_mttr_s);
  profile.cloud_mtbf_s = json.number_or("cloud_mtbf_s", profile.cloud_mtbf_s);
  profile.cloud_mttr_s = json.number_or("cloud_mttr_s", profile.cloud_mttr_s);
  profile.replica_corruption_prob = json.number_or(
      "replica_corruption_prob", profile.replica_corruption_prob);
  return profile;
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
