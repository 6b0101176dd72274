#include "fault/fault_plan.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace idde::fault {

namespace {

// Fixed stream-id bases so every entity draws from an independent child of
// the master seed regardless of generation order.
constexpr std::uint64_t kServerStream = 0x10000;
constexpr std::uint64_t kLinkStream = 0x20000000;
constexpr std::uint64_t kCloudStream = 0x3c10ad;
constexpr std::uint64_t kCorruptionStream = 0x4c0de;

/// Alternating renewal process clipped to [0, horizon).
std::vector<Interval> draw_downtime(util::Rng rng, double mtbf_s,
                                    double mttr_s, double horizon_s) {
  std::vector<Interval> intervals;
  double t = rng.exponential(1.0 / mtbf_s);
  while (t < horizon_s) {
    const double repair = rng.exponential(1.0 / mttr_s);
    intervals.push_back(Interval{t, std::min(t + repair, horizon_s)});
    t += repair + rng.exponential(1.0 / mtbf_s);
  }
  return intervals;
}

/// True when `t` lies inside one of the sorted, disjoint intervals.
bool down_at(const std::vector<Interval>& intervals, double t) {
  const auto it = std::upper_bound(
      intervals.begin(), intervals.end(), t,
      [](double value, const Interval& iv) { return value < iv.start_s; });
  if (it == intervals.begin()) return false;
  return t < std::prev(it)->end_s;
}

}  // namespace

void config_fields(util::ConfigIo& io, FaultProfile& profile) {
  using enum util::Domain;
  io.real("horizon_s", profile.horizon_s, kPositive);
  io.real("server_mtbf_s", profile.server_mtbf_s, kNonNegative);
  io.real("server_mttr_s", profile.server_mttr_s, kPositive);
  io.real("link_mtbf_s", profile.link_mtbf_s, kNonNegative);
  io.real("link_mttr_s", profile.link_mttr_s, kPositive);
  io.real("cloud_mtbf_s", profile.cloud_mtbf_s, kNonNegative);
  io.real("cloud_mttr_s", profile.cloud_mttr_s, kPositive);
  io.real("replica_corruption_prob", profile.replica_corruption_prob,
          kProbability);
}

FaultPlan FaultPlan::generate(const model::ProblemInstance& instance,
                              const FaultProfile& profile,
                              std::uint64_t seed) {
  util::check_config(profile);

  FaultPlan plan;
  plan.horizon_s_ = profile.horizon_s;
  const util::Rng master(seed);

  if (profile.server_mtbf_s > 0.0) {
    for (std::size_t i = 0; i < instance.server_count(); ++i) {
      const auto intervals =
          draw_downtime(master.fork(kServerStream + i), profile.server_mtbf_s,
                        profile.server_mttr_s, profile.horizon_s);
      for (const Interval& iv : intervals) plan.add_server_downtime(i, iv);
    }
  }

  if (profile.link_mtbf_s > 0.0) {
    // Deduplicated undirected link set, ordered by (min, max) id so the
    // per-link stream index is a pure function of the topology.
    std::map<LinkKey, bool> links;
    const net::Graph& graph = instance.graph();
    for (std::size_t a = 0; a < graph.node_count(); ++a) {
      for (const net::Neighbor& nb : graph.neighbors(a)) {
        if (a < nb.node) links.emplace(LinkKey{a, nb.node}, true);
      }
    }
    std::size_t l = 0;
    for (const auto& [key, unused] : links) {
      (void)unused;
      const auto intervals =
          draw_downtime(master.fork(kLinkStream + l), profile.link_mtbf_s,
                        profile.link_mttr_s, profile.horizon_s);
      for (const Interval& iv : intervals) {
        plan.add_link_downtime(key.first, key.second, iv);
      }
      ++l;
    }
  }

  if (profile.cloud_mtbf_s > 0.0) {
    const auto intervals =
        draw_downtime(master.fork(kCloudStream), profile.cloud_mtbf_s,
                      profile.cloud_mttr_s, profile.horizon_s);
    for (const Interval& iv : intervals) plan.add_cloud_downtime(iv);
  }

  if (profile.replica_corruption_prob > 0.0) {
    util::Rng corruption = master.fork(kCorruptionStream);
    plan.set_replica_corruption(profile.replica_corruption_prob,
                                corruption.generator()());
  }
  return plan;
}

void FaultPlan::append_interval(std::vector<Interval>& intervals,
                                Interval interval) {
  IDDE_EXPECTS(interval.start_s >= 0.0 &&
               interval.end_s > interval.start_s);
  IDDE_EXPECTS(intervals.empty() ||
               interval.start_s >= intervals.back().end_s);
  intervals.push_back(interval);
}

void FaultPlan::record_edge_change(const Interval& interval) {
  for (const double t : {interval.start_s, interval.end_s}) {
    const auto it =
        std::lower_bound(edge_changes_.begin(), edge_changes_.end(), t);
    if (it == edge_changes_.end() || *it != t) edge_changes_.insert(it, t);
  }
  horizon_s_ = std::max(horizon_s_, interval.end_s);
}

void FaultPlan::add_server_downtime(std::size_t server, Interval interval) {
  if (server >= server_down_.size()) server_down_.resize(server + 1);
  append_interval(server_down_[server], interval);
  record_edge_change(interval);
}

void FaultPlan::add_link_downtime(std::size_t a, std::size_t b,
                                  Interval interval) {
  IDDE_EXPECTS(a != b);
  append_interval(link_down_[LinkKey{std::min(a, b), std::max(a, b)}],
                  interval);
  record_edge_change(interval);
}

void FaultPlan::add_cloud_downtime(Interval interval) {
  append_interval(cloud_down_, interval);
  horizon_s_ = std::max(horizon_s_, interval.end_s);
}

void FaultPlan::set_replica_corruption(double probability,
                                       std::uint64_t seed) {
  IDDE_EXPECTS(probability >= 0.0 && probability <= 1.0);
  corruption_prob_ = probability;
  corruption_seed_ = seed;
}

void FaultPlan::set_horizon(double horizon_s) {
  IDDE_EXPECTS(horizon_s >= horizon_s_);
  horizon_s_ = horizon_s;
}

bool FaultPlan::inert() const noexcept {
  if (corruption_prob_ > 0.0 || !cloud_down_.empty() || !link_down_.empty()) {
    return false;
  }
  for (const auto& intervals : server_down_) {
    if (!intervals.empty()) return false;
  }
  return true;
}

bool FaultPlan::server_up(std::size_t server, double t) const {
  if (server >= server_down_.size()) return true;
  return !down_at(server_down_[server], t);
}

void FaultPlan::server_up_mask(std::size_t server_count, double t,
                               std::vector<std::uint8_t>& mask) const {
  mask.resize(server_count);
  for (std::size_t i = 0; i < server_count; ++i) {
    mask[i] = server_up(i, t) ? 1 : 0;
  }
}

bool FaultPlan::link_up(std::size_t a, std::size_t b, double t) const {
  const auto it = link_down_.find(LinkKey{std::min(a, b), std::max(a, b)});
  if (it == link_down_.end()) return true;
  return !down_at(it->second, t);
}

bool FaultPlan::cloud_stalled(double t) const {
  return down_at(cloud_down_, t);
}

bool FaultPlan::replica_corrupted(std::size_t server,
                                  std::size_t item) const {
  if (corruption_prob_ <= 0.0) return false;
  // Stateless per-pair hash: order- and thread-independent by design.
  util::SplitMix64 mix(corruption_seed_ ^
                       (0x100000001b3ULL * (server + 1) + item));
  const double u = static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
  return u < corruption_prob_;
}

double FaultPlan::cloud_completion(double start_s, double duration_s) const {
  IDDE_EXPECTS(start_s >= 0.0 && duration_s >= 0.0);
  double t = start_s;
  double remaining = duration_s;
  for (const Interval& iv : cloud_down_) {
    if (iv.end_s <= t) continue;
    if (iv.start_s > t) {
      const double run = iv.start_s - t;
      if (remaining <= run) return t + remaining;
      remaining -= run;
    }
    t = std::max(t, iv.end_s);
  }
  return t + remaining;
}

double FaultPlan::next_edge_change_after(double t) const {
  const auto it =
      std::upper_bound(edge_changes_.begin(), edge_changes_.end(), t);
  return it == edge_changes_.end() ? kNeverChanges : *it;
}

std::vector<double> FaultPlan::epoch_starts() const {
  std::vector<double> starts;
  starts.reserve(edge_changes_.size() + 1);
  starts.push_back(0.0);
  for (const double t : edge_changes_) {
    // edge_changes_ is sorted unique, so only a leading 0.0 can collide
    // with the implicit epoch start at the origin.
    if (t > 0.0) starts.push_back(t);
  }
  return starts;
}

std::size_t FaultPlan::epoch_index_at(double t) const {
  IDDE_EXPECTS(t >= 0.0);
  // Count edge changes in (0, t]: each strictly positive boundary at or
  // before `t` pushes us one epoch further along epoch_starts().
  const auto begin = std::upper_bound(edge_changes_.begin(),
                                      edge_changes_.end(), 0.0);
  const auto it = std::upper_bound(begin, edge_changes_.end(), t);
  return static_cast<std::size_t>(it - begin);
}

bool FaultPlan::availability_changed_between(double from, double to) const {
  if (to < from) return false;
  const auto it =
      std::upper_bound(edge_changes_.begin(), edge_changes_.end(), from);
  return it != edge_changes_.end() && *it <= to;
}

}  // namespace idde::fault
