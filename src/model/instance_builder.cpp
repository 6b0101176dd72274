#include "model/instance_builder.hpp"

#include <span>

#include "obs/obs.hpp"
#include "radio/shadowing.hpp"
#include "radio/units.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace idde::model {

void config_fields(util::ConfigIo& io, InstanceParams& p) {
  using enum util::Domain;
  io.count("server_count", p.server_count, kPositive);
  io.count("user_count", p.user_count);
  io.count("data_count", p.data_count, kPositive);
  io.real("density", p.density, kNonNegative);
  io.count("channels_per_server", p.channels_per_server, kPositive);
  io.real("channel_bandwidth_mbps", p.channel_bandwidth_mbps, kPositive);
  io.real("noise_dbm", p.noise_dbm, kFinite);
  io.real("min_power_watts", p.min_power_watts, kPositive);
  io.real("max_power_watts", p.max_power_watts, kPositive);
  io.real("pathloss_eta", p.pathloss_eta, kPositive);
  io.real("pathloss_exponent", p.pathloss_exponent, kPositive);
  io.real("shadowing_stddev_db", p.shadowing_stddev_db, kNonNegative);
  io.real("min_max_rate_mbps", p.min_max_rate_mbps, kPositive);
  io.real("max_max_rate_mbps", p.max_max_rate_mbps, kPositive);
  io.reals("data_size_choices_mb", p.data_size_choices_mb, kPositive);
  io.real("min_storage_mb", p.min_storage_mb, kNonNegative);
  io.real("max_storage_mb", p.max_storage_mb, kNonNegative);
  io.real("min_link_speed_mbps", p.min_link_speed_mbps, kPositive);
  io.real("max_link_speed_mbps", p.max_link_speed_mbps, kPositive);
  io.real("cloud_speed_mbps", p.cloud_speed_mbps, kPositive);
  io.real("zipf_exponent", p.zipf_exponent, kNonNegative);
  io.real("extra_request_prob", p.extra_request_prob, kProbability);
  io.count("max_requests_per_user", p.max_requests_per_user);
  io.object("eua", [&eua = p.eua](util::ConfigIo& sub) {
    sub.count("server_count", eua.server_count, kPositive);
    sub.count("user_count", eua.user_count);
    sub.real("area_side_m", eua.area_side_m, kPositive);
    sub.real("min_coverage_radius_m", eua.min_coverage_radius_m, kPositive);
    sub.real("max_coverage_radius_m", eua.max_coverage_radius_m, kPositive);
    sub.real("server_jitter_m", eua.server_jitter_m, kNonNegative);
    sub.real("user_cluster_stddev_m", eua.user_cluster_stddev_m, kNonNegative);
    sub.real("user_background_fraction", eua.user_background_fraction,
             kProbability);
  });
}

InstanceBuilder::InstanceBuilder(InstanceParams params)
    : params_(std::move(params)) {
  // Generator parameters arrive from CLI flags and scenario files, so bad
  // values throw (structured CLI error contract) instead of aborting.
  util::check_config(params_);
  const InstanceParams& p = params_;
  util::validate(p.server_count <= p.eua.server_count,
                 "params: server_count exceeds eua.server_count");
  util::validate(p.user_count <= p.eua.user_count,
                 "params: user_count exceeds eua.user_count");
  util::validate(p.min_power_watts <= p.max_power_watts,
                 "params: min_power_watts > max_power_watts");
  util::validate(p.min_max_rate_mbps <= p.max_max_rate_mbps,
                 "params: min_max_rate_mbps > max_max_rate_mbps");
  util::validate(p.min_storage_mb <= p.max_storage_mb,
                 "params: min_storage_mb > max_storage_mb");
  util::validate(p.min_link_speed_mbps <= p.max_link_speed_mbps,
                 "params: min_link_speed_mbps > max_link_speed_mbps");
  util::validate(p.eua.min_coverage_radius_m <= p.eua.max_coverage_radius_m,
                 "params: eua.min_coverage_radius_m > max_coverage_radius_m");
}

ProblemInstance InstanceBuilder::build(std::uint64_t seed) const {
  IDDE_OBS_SPAN("instance.build");
  util::Rng rng(seed);

  // Spatial layout: regenerate the master EUA-like scenario (fixed layout
  // stream so the "city" is the same across repetitions) and sub-sample
  // N servers / M users with the per-repetition stream.
  util::Rng layout_rng(0xe0a0123456789ULL);
  const geo::EuaScenario full =
      geo::generate_eua_scenario(params_.eua, layout_rng);
  util::Rng sample_rng = rng.fork(1);
  const geo::EuaScenario layout = geo::subsample_covered(
      full, params_.server_count, params_.user_count, sample_rng);

  // Servers.
  util::Rng storage_rng = rng.fork(2);
  std::vector<EdgeServer> servers;
  servers.reserve(params_.server_count);
  for (std::size_t i = 0; i < params_.server_count; ++i) {
    servers.push_back(EdgeServer{
        .position = layout.server_positions[i],
        .coverage_radius_m = layout.coverage_radii_m[i],
        .storage_mb =
            storage_rng.uniform(params_.min_storage_mb, params_.max_storage_mb),
    });
  }

  // Users.
  util::Rng user_rng = rng.fork(3);
  std::vector<User> users;
  users.reserve(params_.user_count);
  for (std::size_t j = 0; j < params_.user_count; ++j) {
    users.push_back(User{
        .position = layout.user_positions[j],
        .power_watts =
            user_rng.uniform(params_.min_power_watts, params_.max_power_watts),
        .max_rate_mbps = user_rng.uniform(params_.min_max_rate_mbps,
                                          params_.max_max_rate_mbps),
    });
  }

  // Data catalogue.
  util::Rng data_rng = rng.fork(4);
  std::vector<DataItem> data;
  data.reserve(params_.data_count);
  for (std::size_t k = 0; k < params_.data_count; ++k) {
    data.push_back(
        DataItem{.size_mb = data_rng.pick(params_.data_size_choices_mb)});
  }

  // Requests: Zipf-popular first item plus a geometric tail.
  util::Rng request_rng = rng.fork(5);
  RequestMatrix requests(params_.user_count, params_.data_count);
  for (std::size_t j = 0; j < params_.user_count; ++j) {
    std::size_t wanted = 1;
    while (wanted < params_.max_requests_per_user &&
           request_rng.bernoulli(params_.extra_request_prob)) {
      ++wanted;
    }
    // add_request is idempotent; redraw until `wanted` distinct items or
    // a bounded number of attempts (protects tiny catalogues).
    std::size_t added = 0;
    for (std::size_t attempt = 0; attempt < 16 && added < wanted; ++attempt) {
      const std::size_t item =
          request_rng.zipf(params_.data_count, params_.zipf_exponent);
      if (!requests.requests(j, item)) {
        requests.add_request(j, item);
        ++added;
      }
    }
    IDDE_ENSURES(added >= 1 || params_.data_count == 0);
  }

  // Edge network.
  util::Rng net_rng = rng.fork(6);
  const net::TopologyParams topology{
      .density = params_.density,
      .min_speed_mbps = params_.min_link_speed_mbps,
      .max_speed_mbps = params_.max_link_speed_mbps,
  };
  net::Graph graph =
      net::generate_topology_graph(params_.server_count, topology, net_rng);
  net::DeliveryLatencyModel latency(net::CostMatrix(graph),
                                    params_.cloud_speed_mbps);

  // Radio environment.
  const radio::ShadowedPathLoss pathloss(
      radio::PathLossModel(params_.pathloss_eta, params_.pathloss_exponent),
      params_.shadowing_stddev_db);
  util::Rng shadow_rng = rng.fork(7);
  radio::RadioEnvironment env;
  env.server_count = params_.server_count;
  env.user_count = params_.user_count;
  env.channels_per_server = params_.channels_per_server;
  env.noise_watts = radio::dbm_to_watts(params_.noise_dbm);
  env.power.resize(params_.user_count);
  env.bandwidth.assign(params_.server_count * params_.channels_per_server,
                       params_.channel_bandwidth_mbps);
  for (std::size_t j = 0; j < params_.user_count; ++j) {
    env.power[j] = users[j].power_watts;
  }

  coverage_sets(servers, users, env.covering_servers);

  env.neighbours = coverage_neighbours(servers);

  // Path loss only for the gains Eq. 2/12 can read: g_{i,j}, i in reach(j).
  env.index_reach();
  const auto distance = [&](std::size_t i, std::size_t j) {
    return geo::distance_m(servers[i].position, users[j].position);
  };
  if (pathloss.sigma_db() == 0.0) {
    for (std::size_t j = 0; j < params_.user_count; ++j) {
      const std::span<const std::size_t> reach = env.reach(j);
      const std::span<double> gains = env.gains(j);
      for (std::size_t e = 0; e < reach.size(); ++e) {
        gains[e] = pathloss.sample_gain(distance(reach[e], j), shadow_rng);
      }
    }
  } else {
    // Shadowing draws one number per (i, j) pair from fork(7) in server-
    // major order; replaying that order and discarding the draws outside
    // reach(j) keeps every stored gain on the draw it always had.
    std::vector<std::size_t> next(env.reach_offset.begin(),
                                  env.reach_offset.end() - 1);
    for (std::size_t i = 0; i < params_.server_count; ++i) {
      for (std::size_t j = 0; j < params_.user_count; ++j) {
        if (next[j] < env.reach_offset[j + 1] &&
            env.reach_server[next[j]] == i) {
          env.gain[next[j]++] =
              pathloss.sample_gain(distance(i, j), shadow_rng);
        } else {
          pathloss.skip_sample(shadow_rng);
        }
      }
    }
  }
  IDDE_OBS_COUNT("instance.gain_entries_total", env.gain.size());

  return ProblemInstance(std::move(servers), std::move(users), std::move(data),
                         std::move(requests), std::move(graph),
                         std::move(latency), std::move(env));
}

ProblemInstance make_instance(const InstanceParams& params,
                              std::uint64_t seed) {
  return InstanceBuilder(params).build(seed);
}

}  // namespace idde::model
