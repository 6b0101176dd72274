#include "coding/coded_planner.hpp"

#include "obs/obs.hpp"
#include "util/assert.hpp"

namespace idde::coding {

CodedGreedyPlanner::CodedGreedyPlanner(const model::ProblemInstance& instance)
    : instance_(&instance) {}

CodedDeliveryEvaluator& CodedGreedyPlanner::evaluator_for(
    const core::AllocationProfile& allocation, FragmentConfig config,
    bool collaborative) {
  if (evaluator_.has_value() && evaluator_->config() == config) {
    evaluator_->reset(allocation, collaborative);
  } else {
    evaluator_.emplace(*instance_, allocation, config, collaborative);
  }
  return *evaluator_;
}

CodedPlanResult CodedGreedyPlanner::plan(
    const core::AllocationProfile& allocation, FragmentConfig config,
    bool collaborative) {
  IDDE_EXPECTS(config.valid());
  IDDE_OBS_SPAN("coding.plan");
  CodedPlanResult result{CodedDeliveryProfile(*instance_, config), 0, 0, 0};
  const core::GreedyRun run = core::run_lazy_greedy<CodedDeliveryProfile>(
      nullptr, result.delivery,
      evaluator_for(allocation, config, collaborative), heap_,
      core::EveryPlacementUsable{}, std::numeric_limits<std::size_t>::max());
  result.placements = run.placements;
  result.gain_evaluations = run.gain_evaluations;
  result.rescan_rounds = run.rescan_rounds;

  IDDE_OBS_COUNT("coding.plans_total", 1);
  IDDE_OBS_COUNT("coding.candidates_scanned_total", run.gain_evaluations);
  IDDE_OBS_COUNT("coding.placements_total", run.placements);
  return result;
}

CodedRepairResult CodedGreedyPlanner::replan(
    const core::AllocationProfile& allocation,
    const CodedDeliveryProfile& sigma, std::span<const std::uint8_t> server_up,
    const core::ReplicaLost& replica_lost, bool collaborative,
    std::size_t max_placements) {
  IDDE_EXPECTS(allocation.size() == instance_->user_count());
  IDDE_EXPECTS(server_up.empty() ||
               server_up.size() == instance_->server_count());
  IDDE_OBS_SPAN("coding.replan");
  const core::SurvivingPlacements usable{server_up, replica_lost};
  usable.mask(allocation, effective_);
  CodedRepairResult result{CodedDeliveryProfile(*instance_, sigma.config()),
                           0, 0, 0.0};
  const core::GreedyRun run = core::run_lazy_greedy(
      &sigma, result.delivery,
      evaluator_for(effective_, sigma.config(), collaborative), heap_, usable,
      max_placements);
  result.lost_placements = run.lost_placements;
  result.repair_placements = run.placements;
  result.recovered_gain_seconds = run.recovered_gain_seconds;

  IDDE_OBS_COUNT("coding.replans_total", 1);
  IDDE_OBS_COUNT("coding.repair_candidates_scanned_total",
                 run.gain_evaluations);
  IDDE_OBS_COUNT("coding.repair_placements_total", run.placements);
  IDDE_OBS_COUNT("coding.lost_placements_total", run.lost_placements);
  return result;
}

}  // namespace idde::coding
