// Phase 1 of IDDE-G: the IDDE-U user-allocation game (Algorithm 1, lines
// 5-21). Best-response dynamics over the benefit function of Eq. 12.
//
// The paper's update rule lets every user submit an improving move each
// round and applies one winner's move. We implement that rule
// (kBestImprovement: the largest benefit gain wins) plus two standard
// variants used by the ablation bench:
//   kFirstImprovement — the lowest-indexed improving user wins the round,
//   kAsyncSweep       — users best-respond sequentially within one sweep
//                       (many moves per round; rounds == sweeps).
// All three converge on potential-game instances; kAsyncSweep is the
// fastest wall-clock and kBestImprovement matches Algorithm 1 literally.
//
// Engine: one applied move perturbs exactly two channel slots (the mover's
// old and new one — see radio::MoveDelta), so a user's cached best
// response stays exact unless the user covers the vacated or entered
// server, or is the mover itself. The engine keeps a dirty set seeded from
// InterferenceField::last_move() and ProblemInstance::covered_users();
// clean users reuse their cached BestResponse with zero SINR work. Dirty
// users are priced through the batched SoA kernel (radio::BatchEvaluator,
// bit-identical to per-slot field.benefit() calls) and can be re-evaluated
// in parallel on a util::ThreadPool (the field is read-only between
// moves).
//
// A round costs O(dirty), not O(M): users enter a pending list when they
// turn dirty, and the refresh drains it. Each user's submitted gain sits
// in a contiguous array grouped into blocks of 64 whose best entries
// (largest gain, lowest index among equals) are re-scanned only when an
// entry changed; a strict > scan over the block bests in ascending order
// then picks the largest gain and, among equal gains, the lowest index —
// the full scan's winner. For every update rule and any thread count the
// move sequence is bit-identical to the serial full-scan engine, which
// lives outside the library as a test/bench oracle
// (tests/oracles/full_scan_game.hpp).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "core/strategy.hpp"
#include "model/instance.hpp"
#include "radio/batch_eval.hpp"

namespace idde::core {

enum class UpdateRule {
  kBestImprovement,
  kFirstImprovement,
  kAsyncSweep,
  /// Adversarial validation rule: the lowest-indexed user with at least
  /// two candidate slots cycles through them round-robin regardless of
  /// benefit, so the dynamics never converge and the potential does not
  /// descend. Exists to exercise convergence watchdogs
  /// (serve::ServeController) end-to-end — never use it to solve. It
  /// reads no cached response, so every user stays dirty.
  kCycleProbe,
};

struct GameOptions {
  UpdateRule rule = UpdateRule::kBestImprovement;
  /// A move must improve the benefit by more than this to be applied;
  /// guards floating-point livelock.
  double improvement_epsilon = 1e-12;
  /// Hard cap on rounds (Theorem 4 guarantees finite convergence; the cap
  /// is a safety net, sized by the driver as ~O(M * candidates)).
  std::size_t max_rounds = 1'000'000;
  /// Optional restriction of each user's candidate servers to a subset of
  /// its coverage (used by DUP-G, which only considers servers caching the
  /// user's requested data). Must outlive the game; nullptr = full V_j.
  const std::vector<std::vector<std::size_t>>* candidate_servers = nullptr;
  /// Per-user move budget. Theorem 3's potential argument assumes
  /// homogeneous channel gains; with fully heterogeneous gains
  /// best-response dynamics can cycle, so each user is frozen after this
  /// many moves. Empirically users move 1-4 times before equilibrium, so
  /// the budget only engages on cycling instances.
  std::size_t max_moves_per_user = 32;
  /// The caller runs the game under a deliberate work budget (max_rounds
  /// sized per event, as the serve controller does): hitting the round cap
  /// is then the expected partial-repair outcome, not a solver anomaly, so
  /// the round-cap warning is suppressed.
  bool budgeted = false;
  /// Worker threads for re-evaluating the dirty set: 1 = serial (default),
  /// 0 = hardware concurrency, n = exactly n workers. The move sequence is
  /// identical for every value.
  /// Concurrency contract: workers share the field read-only (enforced by
  /// a version-counter assert around the fan-out) and write disjoint cache
  /// entries — see DESIGN.md §9; tests/test_concurrency_stress.cpp runs
  /// this under TSan, including whole solves racing on separate threads.
  std::size_t threads = 1;
};

struct GameResult {
  AllocationProfile allocation;
  std::size_t rounds = 0;
  std::size_t moves = 0;
  std::size_t benefit_evaluations = 0;
  bool converged = false;
  /// Users frozen by the per-user move budget (0 on potential-game
  /// instances; > 0 means the returned profile is only an approximate
  /// equilibrium).
  std::size_t frozen_users = 0;
  /// Benefit (Eq. 12) of each user at its final slot, 0 when unallocated.
  /// Warm entries come from the engine's cache, so tests can cross-check
  /// them against a from-scratch recomputation.
  std::vector<double> final_benefits;
};

class IddeUGame {
 public:
  explicit IddeUGame(const model::ProblemInstance& instance,
                     GameOptions options = {});

  /// Runs best-response dynamics from the all-unallocated profile to a
  /// Nash equilibrium (Definition 3).
  [[nodiscard]] GameResult run();

  /// Runs from a caller-supplied starting profile.
  [[nodiscard]] GameResult run_from(const AllocationProfile& start);

 private:
  struct BestResponse {
    ChannelSlot slot = kUnallocated;
    double benefit = 0.0;
  };

  /// The user's candidate servers: GameOptions::candidate_servers when
  /// set, else its full coverage set V_j.
  [[nodiscard]] const std::vector<std::size_t>& candidates(
      std::size_t user) const;

  /// Best candidate in delta_j over candidate servers x channels, priced
  /// in one batched sweep; the scan runs server-major, channel-minor and
  /// strict > keeps the first of equal benefits. Also writes the user's
  /// current benefit to *current: 0 when unallocated, else read from the
  /// same sweep when the current slot is a candidate (the batched kernel
  /// is bit-identical to field.benefit), and field.benefit otherwise.
  [[nodiscard]] BestResponse best_response(
      radio::BatchEvaluator& batch, const radio::InterferenceField& field,
      std::size_t user, double* current, std::size_t* evaluations) const;

  const model::ProblemInstance* instance_;
  GameOptions options_;
};

/// Definition 3 check: no user can unilaterally improve its benefit by more
/// than `epsilon`. Used by tests and the harness's self-checks.
[[nodiscard]] bool is_nash_equilibrium(const model::ProblemInstance& instance,
                                       const AllocationProfile& allocation,
                                       double epsilon = 1e-9);

}  // namespace idde::core
