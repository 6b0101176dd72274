// HealthTracker: online per-server health scores from observed deliveries.
//
// The binary fault layer (src/fault) can only say "up" or "down"; a gray
// server — slow, lossy, metastable — reports up while quietly inflating
// every leg routed through it. The tracker turns observed leg completions
// into a health score in (0, 1] per server:
//
//   inflation_i  = EWMA of (observed_seconds / expected_seconds)   (>= 0)
//   loss_frac_i  = losses_i / (legs_i + losses_i)
//   score_i      = 1 / (max(inflation_i, 1) + loss_weight * loss_frac_i)
//
// A healthy server (every leg on time, no losses) scores exactly 1.0; a 4×
// slow server converges to 0.25. Demotion is hysteretic: a server drops to
// "demoted" when its score falls below `demote_score` (after `min_samples`
// legs) and is only readmitted above `recover_score`, so a score hovering
// at the threshold cannot flap the routing decision every leg.
//
// core::Eq8Resolver (core/resolver.hpp) is the health-aware Eq. 8 when
// given a tracker: each edge leg's seconds are divided by its host's score,
// so a gray server must beat healthy alternatives by its own slowdown
// factor to win. With a fresh tracker every score is exactly 1.0 and the
// weighted choice reduces to the plain one bit-identically (same
// comparisons, same ties) — the zero-cost-when-disabled contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace idde::core {

struct HealthConfig {
  /// EWMA smoothing factor for the latency-inflation ratio in (0, 1].
  double ewma_alpha = 0.3;
  /// Demote below this score (hysteresis low-water mark).
  double demote_score = 0.6;
  /// Readmit above this score (high-water mark; >= demote_score).
  double recover_score = 0.8;
  /// Weight of the loss fraction in the score denominator.
  double loss_weight = 1.0;
  /// Observations required before a server may be demoted.
  std::size_t min_samples = 3;
};

/// Serialisable per-server state (checkpointed by the serve layer).
struct ServerHealth {
  double ewma_inflation = 1.0;  ///< EWMA of observed/expected leg seconds
  std::uint64_t legs = 0;       ///< completed (non-lost) legs observed
  std::uint64_t losses = 0;     ///< lost/failed legs observed
  bool demoted = false;         ///< hysteretic demotion latch
  friend bool operator==(const ServerHealth&, const ServerHealth&) = default;
};

class HealthTracker {
 public:
  HealthTracker() = default;
  HealthTracker(std::size_t server_count, const HealthConfig& config);

  /// Feeds one completed leg from `server`: `expected_s` is the modelled
  /// uncontended transfer time, `observed_s` what actually happened.
  void record_leg(std::size_t server, double expected_s, double observed_s);
  /// Feeds one lost/failed leg from `server`.
  void record_loss(std::size_t server);

  /// Health score in (0, 1]; exactly 1.0 until evidence arrives.
  [[nodiscard]] double score(std::size_t server) const;
  /// Hysteretic demotion latch (see header comment).
  [[nodiscard]] bool demoted(std::size_t server) const {
    return state_[server].demoted;
  }
  [[nodiscard]] std::size_t server_count() const noexcept {
    return state_.size();
  }
  [[nodiscard]] const HealthConfig& config() const noexcept { return config_; }

  /// Checkpoint/restore of the full tracker state (serve layer).
  [[nodiscard]] const std::vector<ServerHealth>& state() const noexcept {
    return state_;
  }
  void restore_state(std::vector<ServerHealth> state);

 private:
  void refresh_demotion(std::size_t server);

  HealthConfig config_;
  std::vector<ServerHealth> state_;
};

}  // namespace idde::core
