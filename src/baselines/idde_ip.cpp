#include "baselines/idde_ip.hpp"

namespace idde::baselines {

IddeIp::IddeIp(double budget_ms) : budget_ms_(budget_ms) {}

core::Strategy IddeIp::solve(const model::ProblemInstance& instance,
                             util::Rng& rng) const {
  solver::JointSearchOptions options;
  options.budget_ms = budget_ms_;
  solver::JointSearchResult result =
      solver::joint_search(instance, rng, options);
  return std::move(result.strategy);
}

}  // namespace idde::baselines
