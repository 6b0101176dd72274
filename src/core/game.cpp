#include "core/game.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>

#include "obs/obs.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace idde::core {

namespace {

/// Telemetry for one finished solve. Pure observation — the move sequence
/// is bit-identical with this on or off.
void record_game_telemetry(const GameResult& result) {
  IDDE_OBS_COUNT("game.solves_total", 1);
  IDDE_OBS_COUNT("game.moves_total", result.moves);
  IDDE_OBS_COUNT("game.rounds_total", result.rounds);
  IDDE_OBS_COUNT("game.benefit_evaluations_total",
                 result.benefit_evaluations);
  IDDE_OBS_COUNT("game.frozen_users_total", result.frozen_users);
  IDDE_OBS_HISTOGRAM("game.rounds", result.rounds);
  IDDE_OBS_HISTOGRAM("game.moves", result.moves);
}

}  // namespace

IddeUGame::IddeUGame(const model::ProblemInstance& instance,
                     GameOptions options)
    : instance_(&instance), options_(options) {
  IDDE_EXPECTS(options.improvement_epsilon >= 0.0);
  IDDE_EXPECTS(options.max_rounds > 0);
}

const std::vector<std::size_t>& IddeUGame::candidates(std::size_t user) const {
  return options_.candidate_servers != nullptr
             ? (*options_.candidate_servers)[user]
             : instance_->covering_servers(user);
}

IddeUGame::BestResponse IddeUGame::best_response(
    radio::BatchEvaluator& batch, const radio::InterferenceField& field,
    std::size_t user, double* current, std::size_t* evaluations) const {
  const std::size_t channels = instance_->radio_env().channels_per_server;
  const auto& servers = candidates(user);
  const std::span<const double> priced = batch.benefits(user, servers);
  const ChannelSlot held = field.slot_of(user);
  bool held_priced = false;
  BestResponse best;
  for (std::size_t a = 0; a < servers.size(); ++a) {
    if (servers[a] == held.server) {
      *current = priced[a * channels + held.channel];
      held_priced = true;
    }
    for (std::size_t channel = 0; channel < channels; ++channel) {
      const double benefit = priced[a * channels + channel];
      if (benefit > best.benefit) {
        best = BestResponse{ChannelSlot{servers[a], channel}, benefit};
      }
    }
  }
  if (!held_priced) {
    *current = held.allocated() ? field.benefit(user, held) : 0.0;
  }
  *evaluations += priced.size();
  return best;
}

GameResult IddeUGame::run() {
  return run_from(AllocationProfile(instance_->user_count(), kUnallocated));
}

GameResult IddeUGame::run_from(const AllocationProfile& start) {
  IDDE_EXPECTS(start.size() == instance_->user_count());
  IDDE_OBS_SPAN("game.solve");
  radio::InterferenceField field(instance_->radio_env());
  for (std::size_t j = 0; j < start.size(); ++j) {
    if (start[j].allocated()) field.add_user(j, start[j]);
  }

  GameResult result;
  const std::size_t user_count = instance_->user_count();
  const double eps = options_.improvement_epsilon;
  std::vector<std::size_t> moves_of(user_count, 0);
  const auto movable = [&](std::size_t j) {
    return moves_of[j] < options_.max_moves_per_user;
  };

  // Winner selection without an O(M) scan. gain[j] is the improvement user
  // j submits, cached[j].benefit - current[j], or -inf when j is frozen or
  // has no allocated best response. Users are grouped into fixed blocks of
  // kGainBlock; each block keeps its best entry (largest gain, lowest index
  // among equal gains), and only blocks with a rewritten entry are
  // re-scanned before the next selection. A strict > scan over the block
  // bests in ascending order then returns exactly the full scan's winner:
  // the largest gain, and the lowest index among equal gains.
  constexpr std::size_t kGainBlock = 64;
  constexpr double kNoGain = -std::numeric_limits<double>::infinity();
  const std::size_t block_count = (user_count + kGainBlock - 1) / kGainBlock;
  std::vector<double> gain(user_count, kNoGain);
  std::vector<double> block_gain(block_count, kNoGain);
  std::vector<std::size_t> block_user(block_count, ChannelSlot::kNone);
  std::vector<char> block_stale(block_count, 0);
  std::vector<std::size_t> stale_blocks;
  stale_blocks.reserve(block_count);
  const auto set_gain = [&](std::size_t j, double value) {
    gain[j] = value;
    const std::size_t b = j / kGainBlock;
    if (block_stale[b] == 0) {
      block_stale[b] = 1;
      stale_blocks.push_back(b);
    }
  };
  const auto rescan_stale_blocks = [&] {
    for (const std::size_t b : stale_blocks) {
      const std::size_t end = std::min(user_count, (b + 1) * kGainBlock);
      double best = kNoGain;
      std::size_t best_user = ChannelSlot::kNone;
      for (std::size_t j = b * kGainBlock; j < end; ++j) {
        if (gain[j] > best) {
          best = gain[j];
          best_user = j;
        }
      }
      block_gain[b] = best;
      block_user[b] = best_user;
      block_stale[b] = 0;
    }
    stale_blocks.clear();
  };

  const auto record_move = [&](std::size_t j) {
    if (++moves_of[j] == options_.max_moves_per_user) {
      ++result.frozen_users;
      set_gain(j, kNoGain);
    }
  };

  std::unique_ptr<util::ThreadPool> pool;
  if (options_.threads != 1 && user_count > 1) {
    pool = std::make_unique<util::ThreadPool>(  // lint: alloc-ok(per run)
        options_.threads);
  }

  // Batched evaluators are per-thread scratch (SoA accumulators), never
  // shared: one for the serial paths plus one per pool lane for the
  // parallel fan-out. Each call reads the live field, so mid-sweep moves
  // (kAsyncSweep) are priced against the current state.
  radio::BatchEvaluator batch(field);
  std::vector<radio::BatchEvaluator> lane_batch;
  if (pool != nullptr) {
    lane_batch.reserve(pool->size());
    for (std::size_t lane = 0; lane < pool->size(); ++lane) {
      lane_batch.emplace_back(field);
    }
  }

  // The cache: each user's best response and current benefit against the
  // field state at its last refresh. A user is dirty iff a later move may
  // have invalidated either value — it covers the vacated or entered
  // server (so some candidate shares a channel index with a perturbed
  // slot) or it is the mover itself. Everyone starts dirty.
  //
  // A user joins `pending` when its dirty flag goes from 0 to 1, so a
  // refresh drains the users dirtied since the last one instead of
  // scanning all M. queued[j] marks membership and keeps each user in the
  // list at most once: kAsyncSweep clears dirty flags lazily, mid-sweep,
  // and a user re-dirtied after that must not be listed twice (two lanes
  // of the fan-out would then write the same cache entry).
  std::vector<BestResponse> cached(user_count);
  std::vector<double> current(user_count, 0.0);
  std::vector<char> dirty(user_count, 1);
  std::vector<char> queued(user_count, 1);
  std::vector<std::size_t> pending;
  pending.reserve(user_count);
  for (std::size_t j = 0; j < user_count; ++j) pending.push_back(j);
  std::vector<std::size_t> dirty_list;
  dirty_list.reserve(user_count);
  const auto mark_dirty = [&](std::size_t u) {
    if (dirty[u] != 0) return;
    dirty[u] = 1;
    if (queued[u] == 0) {
      queued[u] = 1;
      pending.push_back(u);
    }
  };

  const auto evaluate_user = [&](radio::BatchEvaluator& eval, std::size_t j,
                                 std::size_t* evaluations) {
    cached[j] = best_response(eval, field, j, &current[j], evaluations);
  };

  // Below this many dirty users a pool dispatch costs more than the
  // evaluations themselves (one mutex/condvar round-trip per lane); the
  // steady-state dirty set after a move is usually this small.
  constexpr std::size_t kMinParallelBatch = 64;

  // Re-evaluates every dirty movable user (frozen users never move again,
  // so their cache entries are dead). The field is read-only here, which
  // makes the fan-out embarrassingly parallel; results land in distinct
  // cache slots, so no synchronisation beyond the evaluation counter.
  //
  // Concurrency contract of the fan-out (stress-tested under TSan by
  // tests/test_concurrency_stress.cpp): workers share the field and its
  // version counters strictly read-only — the version guard below turns
  // any future violation of that contract into a hard failure instead of
  // a silent race — and each worker writes only cached[j] / current[j]
  // for its own j, so entries are disjoint by construction.
  //
  // Draining `pending` yields every dirty movable user: a movable user is
  // dirty only after mark_dirty queued it, and a dirty user dropped here
  // is frozen for good. Users that kAsyncSweep already re-evaluated are
  // clean again and are skipped.
  const auto refresh_dirty = [&] {
    dirty_list.clear();
    for (const std::size_t j : pending) {
      queued[j] = 0;
      if (dirty[j] != 0 && movable(j)) dirty_list.push_back(j);
    }
    pending.clear();
    IDDE_OBS_HISTOGRAM("game.dirty_set_size", dirty_list.size());
    if (pool != nullptr && dirty_list.size() >= kMinParallelBatch) {
      // Backlog sampled before dispatch: non-zero only when the pool is
      // shared with other in-flight work.
      IDDE_OBS_HISTOGRAM("game.pool_queue_depth", pool->queued());
      const std::uint64_t version_before = field.version();
      // memory-order: seq_cst tally; only read after parallel_for_lanes
      // joins, so no cross-thread ordering is derived from it.
      std::atomic<std::size_t> evaluations{0};
      util::parallel_for_lanes(
          *pool, dirty_list.size(), [&](std::size_t lane, std::size_t idx) {
            std::size_t local = 0;
            evaluate_user(lane_batch[lane], dirty_list[idx], &local);
            evaluations.fetch_add(local, std::memory_order_relaxed);
          });
      IDDE_ASSERT(field.version() == version_before,
                  "InterferenceField mutated during parallel refresh");
      result.benefit_evaluations += evaluations.load();
    } else {
      for (const std::size_t j : dirty_list) {
        evaluate_user(batch, j, &result.benefit_evaluations);
      }
    }
    for (const std::size_t j : dirty_list) {
      dirty[j] = 0;
      set_gain(j, cached[j].slot.allocated() ? cached[j].benefit - current[j]
                                             : kNoGain);
    }
  };

  // Dirty-set invariant: the applied move perturbed exactly the two slots
  // in the field's delta report, so a user's cache survives unless its
  // coverage reaches one of those servers (all of its candidates and both
  // interference terms read only slots at covering servers) or it moved.
  const auto apply_move = [&](std::size_t j, ChannelSlot slot) {
    field.move_user(j, slot);
    const radio::MoveDelta& delta = field.last_move();
    mark_dirty(delta.user);
    if (delta.from.allocated()) {
      for (const std::size_t u : instance_->covered_users(delta.from.server)) {
        mark_dirty(u);
      }
    }
    if (delta.to.allocated()) {
      for (const std::size_t u : instance_->covered_users(delta.to.server)) {
        mark_dirty(u);
      }
    }
    record_move(j);
    ++result.moves;
  };

  while (result.rounds < options_.max_rounds) {
    ++result.rounds;
    bool moved = false;

    switch (options_.rule) {
      case UpdateRule::kBestImprovement: {
        refresh_dirty();
        rescan_stale_blocks();
        // Every movable user submits its cached candidate; the largest
        // gain wins and strict > over the ascending block bests keeps the
        // lowest index among equal gains.
        std::size_t winner = ChannelSlot::kNone;
        double winner_gain = eps;
        for (std::size_t b = 0; b < block_count; ++b) {
          if (block_gain[b] > winner_gain) {
            winner_gain = block_gain[b];
            winner = block_user[b];
          }
        }
        if (winner != ChannelSlot::kNone) {
          apply_move(winner, cached[winner].slot);
          moved = true;
        }
        break;
      }
      case UpdateRule::kFirstImprovement: {
        refresh_dirty();
        rescan_stale_blocks();
        // The lowest-indexed improving user sits in the leftmost block
        // whose best gain clears epsilon.
        for (std::size_t b = 0; b < block_count && !moved; ++b) {
          if (!(block_gain[b] > eps)) continue;
          const std::size_t end = std::min(user_count, (b + 1) * kGainBlock);
          for (std::size_t j = b * kGainBlock; j < end && !moved; ++j) {
            if (gain[j] > eps) {
              apply_move(j, cached[j].slot);
              moved = true;
            }
          }
        }
        break;
      }
      case UpdateRule::kAsyncSweep: {
        // Moves mutate the field mid-sweep, so evaluation is inherently
        // sequential here; with a pool we still batch the dirty set
        // accumulated since the last sweep, then lazily re-evaluate users
        // re-dirtied by this sweep's earlier moves at their turn.
        if (pool != nullptr) refresh_dirty();
        for (std::size_t j = 0; j < user_count; ++j) {
          if (!movable(j)) continue;
          if (dirty[j] != 0) {
            evaluate_user(batch, j, &result.benefit_evaluations);
            dirty[j] = 0;
          }
          if (!cached[j].slot.allocated()) continue;
          if (cached[j].benefit - current[j] > eps) {
            apply_move(j, cached[j].slot);
            moved = true;
          }
        }
        break;
      }
      case UpdateRule::kCycleProbe: {
        // Watchdog-validation rule (see game.hpp): rotate the first
        // eligible user through its candidate slots, ignoring benefit.
        // Nothing here reads the cache or refreshes it, so every user
        // stays dirty and the final benefits are recomputed below.
        const std::size_t channels =
            instance_->radio_env().channels_per_server;
        for (std::size_t j = 0; j < user_count && !moved; ++j) {
          if (!movable(j)) continue;
          const auto& servers = candidates(j);
          if (servers.size() * channels < 2) continue;
          const ChannelSlot slot = field.slot_of(j);
          // Flat candidate index: position in the server-major,
          // channel-minor scan order (or "before the first" when
          // unallocated), advanced by one modulo the candidate count.
          std::size_t flat = 0;
          if (slot.allocated()) {
            for (std::size_t s = 0; s < servers.size(); ++s) {
              if (servers[s] == slot.server) {
                flat = (s * channels + slot.channel + 1) %
                       (servers.size() * channels);
                break;
              }
            }
          }
          apply_move(j, ChannelSlot{servers[flat / channels],
                                    flat % channels});
          moved = true;
        }
        break;
      }
    }

    if (!moved) {
      result.converged = true;
      break;
    }
  }

  if (!result.converged && !options_.budgeted) {
    util::log_warn("IDDE-U game hit the round cap ({} rounds, {} moves)",
                   result.rounds, result.moves);
  }
  if (result.frozen_users > 0) {
    util::log_debug(
        "IDDE-U game froze {} cycling users after {} moves each",
        result.frozen_users, options_.max_moves_per_user);
  }
  result.allocation.resize(user_count);
  result.final_benefits.resize(user_count, 0.0);
  for (std::size_t j = 0; j < user_count; ++j) {
    const ChannelSlot slot = field.slot_of(j);
    result.allocation[j] = slot;
    if (!slot.allocated()) continue;
    // Serve from the cache where it is warm; frozen users are skipped by
    // refresh_dirty and may be stale, so recompute those.
    result.final_benefits[j] = (dirty[j] == 0 && movable(j))
                                   ? current[j]
                                   : field.benefit(j, slot);
  }
  record_game_telemetry(result);
  return result;
}

bool is_nash_equilibrium(const model::ProblemInstance& instance,
                         const AllocationProfile& allocation, double epsilon) {
  IDDE_EXPECTS(allocation.size() == instance.user_count());
  radio::InterferenceField field(instance.radio_env());
  for (std::size_t j = 0; j < allocation.size(); ++j) {
    if (allocation[j].allocated()) field.add_user(j, allocation[j]);
  }
  const std::size_t channels = instance.radio_env().channels_per_server;
  for (std::size_t j = 0; j < allocation.size(); ++j) {
    const double current = allocation[j].allocated()
                               ? field.benefit(j, allocation[j])
                               : 0.0;
    for (const std::size_t server : instance.covering_servers(j)) {
      for (std::size_t channel = 0; channel < channels; ++channel) {
        if (field.benefit(j, ChannelSlot{server, channel}) >
            current + epsilon) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace idde::core
