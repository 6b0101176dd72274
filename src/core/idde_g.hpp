// IDDE-G (Algorithm 1): Phase 1 finds a Nash equilibrium of the IDDE-U
// game as the user-allocation profile; Phase 2 runs the ratio-greedy data
// delivery planner on top of it.
#pragma once

#include "core/approach.hpp"
#include "core/game.hpp"
#include "core/greedy_delivery.hpp"

namespace idde::core {

struct IddeGOptions {
  GameOptions game;
};

class IddeG final : public Approach {
 public:
  explicit IddeG(IddeGOptions options = {}) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "IDDE-G"; }

  [[nodiscard]] Strategy solve(const model::ProblemInstance& instance,
                               util::Rng& rng) const override;

  [[nodiscard]] const IddeGOptions& options() const noexcept {
    return options_;
  }

 private:
  IddeGOptions options_;
};

}  // namespace idde::core
