// IDDE-IP — the time-capped exact benchmark (the paper feeds the Section
// 2.3 model to IBM CPLEX's CP Optimizer with a 100 s search cap; we run the
// in-repo anytime joint search instead, see DESIGN.md §5). The budget is
// the constructor argument, so CI runs stay fast. IDDE_IP_BUDGET_MS is read
// only at a program's edge (util::ip_budget_ms), never here: an explicit
// budget always holds.
#pragma once

#include "core/approach.hpp"
#include "solver/joint_search.hpp"

namespace idde::baselines {

class IddeIp final : public core::Approach {
 public:
  explicit IddeIp(double budget_ms = 200.0);

  [[nodiscard]] std::string name() const override { return "IDDE-IP"; }

  [[nodiscard]] core::Strategy solve(const model::ProblemInstance& instance,
                                     util::Rng& rng) const override;

  [[nodiscard]] double budget_ms() const noexcept { return budget_ms_; }

 private:
  double budget_ms_;
};

}  // namespace idde::baselines
