// Test/bench oracle for the IDDE-U game: the seed full-scan engine.
//
// Every round re-evaluates every movable user with per-slot
// InterferenceField::benefit() calls — no dirty set, no batched kernel, no
// thread pool. core::IddeUGame must replay its move sequence exactly for
// every update rule, candidate restriction, move budget and thread count;
// tests/test_game_incremental.cpp, tests/test_concurrency_stress.cpp and
// bench/perf_game hold it to that.
#pragma once

#include "core/game.hpp"
#include "core/strategy.hpp"
#include "model/instance.hpp"

namespace idde::oracle {

/// Runs best-response dynamics from `start` under `options` (serially and
/// silently: `threads` and `budgeted` are ignored). The result carries the
/// same fields as IddeUGame::run_from; final_benefits are recomputed from
/// scratch for every allocated user.
[[nodiscard]] core::GameResult full_scan_game(
    const model::ProblemInstance& instance, const core::GameOptions& options,
    const core::AllocationProfile& start);

/// Same, from the all-unallocated profile.
[[nodiscard]] core::GameResult full_scan_game(
    const model::ProblemInstance& instance,
    const core::GameOptions& options = {});

}  // namespace idde::oracle
