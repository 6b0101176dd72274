#include "core/health.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace idde::core {

HealthTracker::HealthTracker(std::size_t server_count,
                             const HealthConfig& config)
    : config_(config), state_(server_count) {
  IDDE_EXPECTS(config.ewma_alpha > 0.0 && config.ewma_alpha <= 1.0);
  IDDE_EXPECTS(config.demote_score > 0.0 && config.demote_score <= 1.0);
  IDDE_EXPECTS(config.recover_score >= config.demote_score &&
               config.recover_score <= 1.0);
  IDDE_EXPECTS(config.loss_weight >= 0.0);
}

void HealthTracker::record_leg(std::size_t server, double expected_s,
                               double observed_s) {
  IDDE_EXPECTS(server < state_.size());
  IDDE_EXPECTS(expected_s > 0.0 && observed_s >= 0.0);
  ServerHealth& h = state_[server];
  const double ratio = observed_s / expected_s;
  // The first observation seeds the EWMA directly so a server's score
  // reflects evidence, not the optimistic prior, from leg one.
  h.ewma_inflation = h.legs == 0
                         ? ratio
                         : h.ewma_inflation +
                               config_.ewma_alpha * (ratio - h.ewma_inflation);
  ++h.legs;
  refresh_demotion(server);
}

void HealthTracker::record_loss(std::size_t server) {
  IDDE_EXPECTS(server < state_.size());
  ++state_[server].losses;
  refresh_demotion(server);
}

double HealthTracker::score(std::size_t server) const {
  IDDE_EXPECTS(server < state_.size());
  const ServerHealth& h = state_[server];
  const std::uint64_t samples = h.legs + h.losses;
  if (samples == 0) return 1.0;
  const double loss_frac =
      static_cast<double>(h.losses) / static_cast<double>(samples);
  // A faster-than-expected server is still just healthy (score capped at
  // 1), never super-healthy — the score demotes, it cannot promote.
  const double inflation = std::max(h.ewma_inflation, 1.0);
  return 1.0 / (inflation + config_.loss_weight * loss_frac);
}

void HealthTracker::refresh_demotion(std::size_t server) {
  ServerHealth& h = state_[server];
  if (h.legs + h.losses < config_.min_samples) return;
  const double s = score(server);
  if (!h.demoted && s < config_.demote_score) {
    h.demoted = true;
    IDDE_OBS_COUNT("health.demotions_total", 1);
  } else if (h.demoted && s > config_.recover_score) {
    h.demoted = false;
    IDDE_OBS_COUNT("health.recoveries_total", 1);
  }
}

void HealthTracker::restore_state(std::vector<ServerHealth> state) {
  IDDE_EXPECTS(state.size() == state_.size());
  state_ = std::move(state);
}

}  // namespace idde::core
