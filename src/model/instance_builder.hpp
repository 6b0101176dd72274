// Builds ProblemInstances following Section 4.2/4.3 of the paper:
//  - layout sub-sampled from the (synthetic) EUA scenario,
//  - data sizes drawn from {30, 60, 90} MB,
//  - reserved storage U[30, 300] MB per server,
//  - edge link speeds U[2000, 6000] MB/s, cloud speed 600 MB/s,
//  - 3 channels x 200 MB/s per server, noise -174 dBm,
//  - user powers U[1, 5] W, per-user rate caps around 200 MB/s,
//  - density * N random links.
// All distributions are driven by one seed for full reproducibility.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "geo/eua.hpp"
#include "model/instance.hpp"
#include "net/graph_gen.hpp"
#include "radio/pathloss.hpp"
#include "util/json.hpp"
#include "util/random.hpp"

namespace idde::model {

struct InstanceParams {
  std::size_t server_count = 30;  ///< N
  std::size_t user_count = 200;   ///< M
  std::size_t data_count = 5;     ///< K
  double density = 1.0;           ///< links = density * N

  // Radio layer (Section 4.2).
  std::size_t channels_per_server = 3;
  double channel_bandwidth_mbps = 200.0;
  double noise_dbm = -174.0;
  double min_power_watts = 1.0;
  double max_power_watts = 5.0;
  double pathloss_eta = 1.0;
  double pathloss_exponent = 3.0;
  /// Log-normal shadowing stddev in dB; 0 (the paper's setting) disables
  /// it. Used by the propagation-robustness ablation.
  double shadowing_stddev_db = 0.0;
  /// R_{j,max}: Shannon-capacity cap per user. The paper fixes no value;
  /// U[150, 250] MB/s reproduces the observed ~200 MB/s low-load plateau
  /// of Fig. 4(a).
  double min_max_rate_mbps = 150.0;
  double max_max_rate_mbps = 250.0;

  // Storage / data layer (Section 4.2).
  std::vector<double> data_size_choices_mb{30.0, 60.0, 90.0};
  double min_storage_mb = 30.0;
  double max_storage_mb = 300.0;

  // Network layer (Section 4.2).
  double min_link_speed_mbps = 2000.0;
  double max_link_speed_mbps = 6000.0;
  double cloud_speed_mbps = 600.0;

  // Request workload. Every user requests one item drawn from a Zipf
  // popularity law, plus further items with geometric tail probability
  // (matching the Fig. 2 exemplar where some users request two items).
  double zipf_exponent = 0.8;
  double extra_request_prob = 0.2;
  std::size_t max_requests_per_user = 2;

  // Spatial layout.
  geo::EuaScenarioParams eua;
};

/// The InstanceParams field walk (util::ConfigIo).
void config_fields(util::ConfigIo& io, InstanceParams& p);

class InstanceBuilder {
 public:
  explicit InstanceBuilder(InstanceParams params);

  /// Builds a fresh instance from `seed`. Each call regenerates the full
  /// EUA scenario from the same master layout seed and re-sub-samples, so
  /// two calls with equal seeds are identical.
  [[nodiscard]] ProblemInstance build(std::uint64_t seed) const;

  [[nodiscard]] const InstanceParams& params() const noexcept {
    return params_;
  }

 private:
  InstanceParams params_;
};

/// One-call convenience used by tests.
[[nodiscard]] ProblemInstance make_instance(const InstanceParams& params,
                                            std::uint64_t seed);

}  // namespace idde::model
