// Per-server circuit breaker (closed / open / half-open).
//
// A server whose deliveries keep aborting (crashes, dead links) should be
// taken out of the source rotation instead of being retried into — every
// retry against a down server burns a retry token, a queue slot and the
// request's deadline. The breaker watches a rolling window of delivery
// outcomes per source server:
//
//   closed     all traffic allowed. When the window holds >= min_samples
//              outcomes and the failure fraction reaches
//              failure_threshold, trip to open.
//   open       the server is excluded from failover resolution (requests
//              fall through to surviving replicas or go cloud-direct) for
//              open_duration_s of simulated time.
//   half-open  after the cooldown, up to half_open_probes concurrent trial
//              deliveries are allowed. The first success closes the
//              breaker (window reset); the first failure re-opens it.
//
// Gray servers fail slow, not dead: with slow_ratio > 0 a completed
// delivery whose observed time reaches slow_ratio × the expected time is
// recorded as a failure outcome (record_completion), so sustained latency
// inflation trips the breaker exactly like aborts do.
//
// All transitions are driven by simulated event times passed in by the
// engine — the breaker holds no clock and is fully deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "qos/config.hpp"

namespace idde::qos {

enum class BreakerState : std::uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

class CircuitBreaker {
 public:
  explicit CircuitBreaker(const BreakerConfig& config)
      : config_(config),
        // capacity-bound: config.window outcomes (ring buffer).
        outcomes_(config.window > 0 ? config.window : 1, 0) {}

  /// May this server serve a delivery starting at `now_s` (simulated seconds)? Transitions
  /// open -> half-open when the cooldown has elapsed.
  [[nodiscard]] bool allows(double now_s) noexcept {
    if (config_.inert()) return true;
    refresh(now_s);
    if (state_ == BreakerState::kClosed) return true;
    if (state_ == BreakerState::kOpen) return false;
    return probes_started_ < config_.half_open_probes;
  }

  /// The engine actually routed a delivery from this server (counts a
  /// half-open probe).
  void on_attempt_started(double now_s) noexcept {
    if (config_.inert()) return;
    refresh(now_s);
    if (state_ == BreakerState::kHalfOpen) ++probes_started_;
  }

  /// Outcome of a *completed* delivery with known expected/observed
  /// timing: with slow_ratio configured, finishing at or beyond
  /// slow_ratio × expected counts as a failure (gray-server trip),
  /// otherwise as a success.
  void record_completion(double now_s, double observed_s,
                         double expected_s) noexcept {
    if (config_.inert()) return;
    if (config_.slow_ratio > 0.0 && expected_s > 0.0 &&
        observed_s >= config_.slow_ratio * expected_s) {
      record_failure(now_s);
    } else {
      record_success(now_s);
    }
  }

  void record_success(double now_s) noexcept {
    if (config_.inert()) return;
    refresh(now_s);
    if (state_ == BreakerState::kHalfOpen) {
      close();
      return;
    }
    if (state_ == BreakerState::kClosed) push_outcome(1);
  }

  void record_failure(double now_s) noexcept {
    if (config_.inert()) return;
    refresh(now_s);
    if (state_ == BreakerState::kHalfOpen) {
      open(now_s);
      return;
    }
    if (state_ != BreakerState::kClosed) return;  // outcomes while open: moot
    push_outcome(0);
    if (filled_ >= config_.min_samples && filled_ > 0) {
      const double failure_rate =
          static_cast<double>(failures_) / static_cast<double>(filled_);
      if (failure_rate >= config_.failure_threshold) open(now_s);
    }
  }

  [[nodiscard]] BreakerState state(double now_s) noexcept {
    refresh(now_s);
    return state_;
  }

  /// Times the breaker tripped closed -> open (or re-opened from
  /// half-open); the qos.breaker_opens metric.
  [[nodiscard]] std::size_t times_opened() const noexcept {
    return times_opened_;
  }

 private:
  void refresh(double now_s) noexcept {
    if (state_ == BreakerState::kOpen && now_s >= open_until_) {
      state_ = BreakerState::kHalfOpen;
      probes_started_ = 0;
    }
  }

  void open(double now_s) noexcept {
    state_ = BreakerState::kOpen;
    open_until_ = now_s + config_.open_duration_s;
    ++times_opened_;
  }

  void close() noexcept {
    state_ = BreakerState::kClosed;
    next_ = 0;
    filled_ = 0;
    failures_ = 0;
    for (auto& outcome : outcomes_) outcome = 0;
  }

  void push_outcome(std::uint8_t success) noexcept {
    if (filled_ == outcomes_.size()) {
      if (outcomes_[next_] == 0) --failures_;
    } else {
      ++filled_;
    }
    outcomes_[next_] = success;
    if (success == 0) ++failures_;
    next_ = (next_ + 1) % outcomes_.size();
  }

  BreakerConfig config_;
  std::vector<std::uint8_t> outcomes_;  // ring; capacity-bound: window
  std::size_t next_ = 0;
  std::size_t filled_ = 0;
  std::size_t failures_ = 0;
  BreakerState state_ = BreakerState::kClosed;
  double open_until_ = 0.0;
  std::size_t probes_started_ = 0;  // probes launched this half-open episode
  std::size_t times_opened_ = 0;
};

}  // namespace idde::qos
