// Log-normal shadowing on top of the log-distance path loss. The paper
// notes the SINR "can be calculated based on other wireless communication
// models ... without impacting the IDDE problem fundamentally"; this is the
// standard first refinement (large-scale fading from obstructions), and
// bench/ablation_propagation checks that the paper's conclusions are
// robust to it.
#pragma once

#include <cmath>

#include "radio/pathloss.hpp"
#include "util/random.hpp"

namespace idde::radio {

class ShadowedPathLoss {
 public:
  /// `sigma_db` is the shadowing standard deviation in dB (urban macro
  /// cells: 4-8 dB). sigma_db = 0 reduces to the deterministic model.
  ShadowedPathLoss(PathLossModel base, double sigma_db)
      : base_(base), sigma_db_(sigma_db) {
    IDDE_EXPECTS(sigma_db >= 0.0);
  }

  /// Draws one link's gain: deterministic path loss times a log-normal
  /// shadowing factor. Each (server, user) pair should draw exactly once
  /// (shadowing is a property of the static environment, not of time).
  [[nodiscard]] double sample_gain(double distance_m, util::Rng& rng) const {
    const double gain = base_.gain(distance_m);
    if (sigma_db_ == 0.0) return gain;
    const double shadow_db = rng.normal(0.0, sigma_db_);
    return gain * std::pow(10.0, shadow_db / 10.0);
  }

  /// Consumes the draw sample_gain would make, for a pair whose gain is
  /// not kept, so the stream stays aligned with the pairs that are.
  void skip_sample(util::Rng& rng) const {
    if (sigma_db_ != 0.0) (void)rng.normal(0.0, sigma_db_);
  }

  [[nodiscard]] const PathLossModel& base() const noexcept { return base_; }
  [[nodiscard]] double sigma_db() const noexcept { return sigma_db_; }

 private:
  PathLossModel base_;
  double sigma_db_;
};

}  // namespace idde::radio
