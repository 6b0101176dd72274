// Deterministic fault schedules for the edge graph.
//
// The paper's delivery model (Eq. 8/9) assumes a fault-free system: every
// replica named by sigma is reachable and the cloud leg never stalls. A
// FaultPlan is a pre-drawn, seed-reproducible schedule of the failures real
// edge storage systems live with: per-server crash/recover intervals,
// per-link down/up intervals, cloud brown-out intervals, and a per-replica
// corruption lottery. The plan is *data*, not behaviour — the analytic
// failover resolver (core/delivery), the sigma repair
// (core::GreedyDeliveryPlanner::replan) and the flow-level DES
// (des/flow_sim) all consume the same plan, so every layer degrades the
// same world.
//
// Determinism contract: a plan is a pure function of
// (instance topology, FaultProfile, seed). Every stream is forked from the
// master seed by a fixed stream id and corruption is a stateless hash, so
// generation order, thread count and query order cannot change the
// schedule. An inert profile (all rates zero) generates an inert plan, and
// every consumer short-circuits on `inert()` — the fault layer is
// guaranteed zero-cost when disabled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "model/instance.hpp"
#include "util/random.hpp"

namespace idde::fault {

/// Failure-process parameters. All processes are alternating renewal
/// processes: up-times ~ Exp(1/mtbf), down-times ~ Exp(1/mttr). A rate of
/// zero (the default) disables that failure class entirely.
struct FaultProfile {
  /// Length of the modelled window; faults are only scheduled in
  /// [0, horizon_s) and everything is up again afterwards.
  double horizon_s = 60.0;
  double server_mtbf_s = 0.0;  ///< 0 = servers never crash
  double server_mttr_s = 5.0;
  double link_mtbf_s = 0.0;  ///< 0 = links never fail
  double link_mttr_s = 5.0;
  double cloud_mtbf_s = 0.0;  ///< 0 = no cloud brown-outs
  double cloud_mttr_s = 2.0;
  /// Probability that a given (server, item) replica is corrupt (silently
  /// unreadable) for the whole window.
  double replica_corruption_prob = 0.0;

  /// True when no failure class is enabled — the all-zero profile.
  [[nodiscard]] bool inert() const noexcept {
    return server_mtbf_s <= 0.0 && link_mtbf_s <= 0.0 &&
           cloud_mtbf_s <= 0.0 && replica_corruption_prob <= 0.0;
  }
};

/// Half-open downtime interval [start_s, end_s).
struct Interval {
  double start_s = 0.0;
  double end_s = 0.0;
  friend bool operator==(const Interval&, const Interval&) = default;
};

class FaultPlan {
 public:
  using LinkKey = std::pair<std::size_t, std::size_t>;  ///< (min, max) ids

  /// Default plan: nothing ever fails.
  FaultPlan() = default;

  /// Draws a plan for `instance`'s topology from `profile`. Deterministic
  /// in (topology, profile, seed); see the header comment.
  [[nodiscard]] static FaultPlan generate(
      const model::ProblemInstance& instance, const FaultProfile& profile,
      std::uint64_t seed);

  // Manual construction (tests and targeted what-if studies). Intervals
  // must be added in increasing, non-overlapping order per entity.
  void add_server_downtime(std::size_t server, Interval interval);
  void add_link_downtime(std::size_t a, std::size_t b, Interval interval);
  void add_cloud_downtime(Interval interval);
  void set_replica_corruption(double probability, std::uint64_t seed);
  void set_horizon(double horizon_s);

  /// True when the plan schedules nothing — consumers take their
  /// fault-free fast path (bit-identical to a plan-less run).
  [[nodiscard]] bool inert() const noexcept;

  [[nodiscard]] double horizon_s() const noexcept { return horizon_s_; }

  // Point queries. Entities without scheduled downtime are always up.
  [[nodiscard]] bool server_up(std::size_t server, double t) const;
  /// Fills `mask` (resized to `server_count`) with 1/0 per server at time
  /// `t` — the degraded-world input of core::Eq8Resolver and
  /// core::GreedyDeliveryPlanner::replan. Allocation-free once `mask` has
  /// capacity.
  void server_up_mask(std::size_t server_count, double t,
                      std::vector<std::uint8_t>& mask) const;
  [[nodiscard]] bool link_up(std::size_t a, std::size_t b, double t) const;
  [[nodiscard]] bool cloud_stalled(double t) const;
  [[nodiscard]] bool replica_corrupted(std::size_t server,
                                       std::size_t item) const;

  /// Completion time of an uncontended cloud transfer of `duration_s`
  /// started at `start_s`: the transfer stalls (rate 0) inside brown-out
  /// intervals and resumes afterwards.
  [[nodiscard]] double cloud_completion(double start_s,
                                        double duration_s) const;

  /// Sorted unique times at which *edge* availability (a server or a link)
  /// changes. Cloud brown-outs are excluded: they never alter the edge
  /// graph, only the cloud leg's timing.
  [[nodiscard]] const std::vector<double>& edge_change_times() const noexcept {
    return edge_changes_;
  }
  /// First edge-availability change strictly after `t` (+inf when none).
  [[nodiscard]] double next_edge_change_after(double t) const;

  // Epoch view of the edge-availability timeline. An epoch is a maximal
  // half-open interval over which the degraded edge graph is constant;
  // epoch e spans [epoch_starts()[e], epoch_starts()[e+1]) (the last one
  // is unbounded). This is the single source of epoch boundaries —
  // FaultInjector snapshots and ServeController tick gating both consume
  // it, so they can never disagree about where an epoch begins.
  /// [0.0] followed by every strictly positive edge-change time.
  [[nodiscard]] std::vector<double> epoch_starts() const;
  /// Index of the epoch containing `t` (t >= 0).
  [[nodiscard]] std::size_t epoch_index_at(double t) const;
  /// True when an edge-availability boundary lies in (from, to] — i.e.
  /// the degraded graph at `to` may differ from the one at `from`.
  [[nodiscard]] bool availability_changed_between(double from,
                                                 double to) const;

  // Introspection for tests and reporting.
  [[nodiscard]] const std::vector<std::vector<Interval>>& server_downtime()
      const noexcept {
    return server_down_;
  }
  [[nodiscard]] const std::map<LinkKey, std::vector<Interval>>& link_downtime()
      const noexcept {
    return link_down_;
  }
  [[nodiscard]] const std::vector<Interval>& cloud_downtime() const noexcept {
    return cloud_down_;
  }
  [[nodiscard]] double replica_corruption_prob() const noexcept {
    return corruption_prob_;
  }

 private:
  static void append_interval(std::vector<Interval>& intervals,
                              Interval interval);
  void record_edge_change(const Interval& interval);

  double horizon_s_ = 0.0;
  std::vector<std::vector<Interval>> server_down_;  // index = server id
  std::map<LinkKey, std::vector<Interval>> link_down_;
  std::vector<Interval> cloud_down_;
  std::vector<double> edge_changes_;  // sorted unique boundaries
  double corruption_prob_ = 0.0;
  std::uint64_t corruption_seed_ = 0;
};

inline constexpr double kNeverChanges = std::numeric_limits<double>::infinity();

}  // namespace idde::fault
