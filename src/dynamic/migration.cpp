#include "dynamic/migration.hpp"

#include "core/resolver.hpp"
#include "util/assert.hpp"

namespace idde::dynamic {

MigrationPlan plan_migration(const model::ProblemInstance& instance,
                             const core::DeliveryProfile& previous,
                             const core::DeliveryProfile& next) {
  IDDE_EXPECTS(previous.server_count() == instance.server_count());
  IDDE_EXPECTS(next.server_count() == instance.server_count());
  core::Eq8Resolver resolver(instance);
  MigrationPlan plan;
  for (std::size_t k = 0; k < instance.data_count(); ++k) {
    const double size = instance.data(k).size_mb;
    for (const std::size_t to : next.hosts(k)) {
      if (previous.placed(to, k)) continue;  // replica already in place
      // Cheapest source: Eq. 8 from the new host's side, over the
      // previous replicas and the cloud.
      const core::Eq8Resolution source = resolver.estimate(
          {.hosts = previous.hosts(k),
           .serving = to,
           .item_mb = size,
           .fragment_mb = size});
      const std::size_t from = source.source() == core::kCloudSource
                                   ? MigrationStep::kFromCloud
                                   : source.source();
      plan.steps.push_back(MigrationStep{k, to, from, source.seconds});
      plan.total_mb += size;
      plan.total_transfer_seconds += source.seconds;
      if (from == MigrationStep::kFromCloud) ++plan.cloud_fetches;
    }
  }
  return plan;
}

}  // namespace idde::dynamic
