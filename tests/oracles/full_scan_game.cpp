#include "oracles/full_scan_game.hpp"

#include <vector>

#include "radio/interference.hpp"
#include "util/assert.hpp"

namespace idde::oracle {

namespace {

using core::ChannelSlot;
using core::UpdateRule;

struct BestResponse {
  ChannelSlot slot = core::kUnallocated;
  double benefit = 0.0;
};

}  // namespace

core::GameResult full_scan_game(const model::ProblemInstance& instance,
                                const core::GameOptions& options,
                                const core::AllocationProfile& start) {
  IDDE_EXPECTS(start.size() == instance.user_count());
  radio::InterferenceField field(instance.radio_env());
  for (std::size_t j = 0; j < start.size(); ++j) {
    if (start[j].allocated()) field.add_user(j, start[j]);
  }

  core::GameResult result;
  const std::size_t user_count = instance.user_count();
  const std::size_t channels = instance.radio_env().channels_per_server;
  const double eps = core::kImprovementEpsilon;
  std::vector<std::size_t> moves_of(user_count, 0);
  const auto movable = [&](std::size_t j) {
    return moves_of[j] < options.max_moves_per_user;
  };
  const auto apply_move = [&](std::size_t j, ChannelSlot slot) {
    field.move_user(j, slot);
    if (++moves_of[j] == options.max_moves_per_user) ++result.frozen_users;
    ++result.moves;
  };
  const auto candidates = [&](std::size_t j) -> const auto& {
    return options.candidate_servers != nullptr
               ? (*options.candidate_servers)[j]
               : instance.covering_servers(j);
  };
  const auto best_response = [&](std::size_t j) {
    BestResponse best;
    for (const std::size_t server : candidates(j)) {
      for (std::size_t channel = 0; channel < channels; ++channel) {
        const ChannelSlot slot{server, channel};
        const double benefit = field.benefit(j, slot);
        ++result.benefit_evaluations;
        if (benefit > best.benefit) best = BestResponse{slot, benefit};
      }
    }
    return best;
  };
  // Benefit of the user's current decision; 0 when unallocated.
  const auto current_benefit = [&](std::size_t j) {
    const ChannelSlot slot = field.slot_of(j);
    return slot.allocated() ? field.benefit(j, slot) : 0.0;
  };

  while (result.rounds < options.max_rounds) {
    ++result.rounds;
    bool moved = false;

    switch (options.rule) {
      case UpdateRule::kBestImprovement: {
        std::size_t winner = ChannelSlot::kNone;
        ChannelSlot winner_slot = core::kUnallocated;
        double winner_gain = eps;
        for (std::size_t j = 0; j < user_count; ++j) {
          if (!movable(j)) continue;
          const BestResponse candidate = best_response(j);
          if (!candidate.slot.allocated()) continue;
          const double gain = candidate.benefit - current_benefit(j);
          if (gain > winner_gain) {
            winner_gain = gain;
            winner = j;
            winner_slot = candidate.slot;
          }
        }
        if (winner != ChannelSlot::kNone) {
          apply_move(winner, winner_slot);
          moved = true;
        }
        break;
      }
      case UpdateRule::kFirstImprovement:
      case UpdateRule::kAsyncSweep: {
        // First improvement stops at the first mover; the sweep goes on.
        const bool sweep = options.rule == UpdateRule::kAsyncSweep;
        for (std::size_t j = 0; j < user_count && (sweep || !moved); ++j) {
          if (!movable(j)) continue;
          const BestResponse candidate = best_response(j);
          if (!candidate.slot.allocated()) continue;
          if (candidate.benefit - current_benefit(j) > eps) {
            apply_move(j, candidate.slot);
            moved = true;
          }
        }
        break;
      }
      case UpdateRule::kCycleProbe: {
        for (std::size_t j = 0; j < user_count && !moved; ++j) {
          if (!movable(j)) continue;
          const auto& servers = candidates(j);
          const std::size_t count = servers.size() * channels;
          if (count < 2) continue;
          const ChannelSlot slot = field.slot_of(j);
          std::size_t flat = 0;
          if (slot.allocated()) {
            for (std::size_t s = 0; s < servers.size(); ++s) {
              if (servers[s] == slot.server) {
                flat = (s * channels + slot.channel + 1) % count;
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

  result.allocation.resize(user_count);
  result.final_benefits.resize(user_count, 0.0);
  for (std::size_t j = 0; j < user_count; ++j) {
    result.allocation[j] = field.slot_of(j);
    result.final_benefits[j] = current_benefit(j);
  }
  return result;
}

core::GameResult full_scan_game(const model::ProblemInstance& instance,
                                const core::GameOptions& options) {
  return full_scan_game(
      instance, options,
      core::AllocationProfile(instance.user_count(), core::kUnallocated));
}

}  // namespace idde::oracle
