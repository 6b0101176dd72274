// Incremental SINR/interference bookkeeping for the IDDE-U game.
//
// Implements Section 2.2 exactly:
//   SINR  (Eq. 2): r_{i,x,j} = g_{i,j} p_j /
//                   (g_{i,j} * sum_{t in U_{i,x} \ j} p_t + F_{i,x,j} + w)
//   cross-cell interference:
//         F_{i,x,j} = sum_{o in V_j \ i} sum_{t in U_{o,x}} g_{i,t} p_t
//   rate  (Eq. 3): R_{i,x,j} = B_{i,x} log2(1 + r_{i,x,j})
//   benefit (Eq. 12): like the SINR but with the full channel power sum
//         (own power included) and no noise term.
//
// The game evaluates a user's benefit at every candidate channel every
// round, so evaluation must be cheap. The field maintains:
//   power_sum[i][x]          = sum of p_t over users allocated to c_{i,x}
//   received[o][x][i]        = sum_{t in U_{o,x}} g_{i,t} p_t,  i in nbr(o)
// so evaluating one candidate costs O(|V_j|) and applying a move costs
// O(|nbr(o)|): only the columns Eq. 2/12 can read are kept up to date (see
// RadioEnvironment for the neighbour lists and the closure invariant that
// makes the skipped columns unreadable). The from-scratch references live
// in tests/oracles/radio_reference.hpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace idde::radio {

/// Static radio-layer description of an instance; all vectors indexed by
/// server i in [0,N) and user j in [0,M).
///
/// Channel gains are stored sparsely, exactly where Eq. 2/12 can read them.
/// nbr(o) lists every server whose coverage disc meets o's (o included);
/// reach(t) is the union of nbr(o) over t's covering servers V_t, and user
/// t stores g_{i,t} for i in reach(t) only. The closure invariant — for
/// every user j and every pair i, o in V_j, i is in nbr(o) — together with
/// Eq. 1 (every allocated slot covers its user) guarantees that every gain
/// the interference model reads is stored; check() validates it.
struct RadioEnvironment {
  std::size_t server_count = 0;
  std::size_t user_count = 0;
  std::size_t channels_per_server = 3;
  /// nbr(o) per server, ascending, always containing o.
  std::vector<std::vector<std::size_t>> neighbours;
  /// reach(t) in CSR form: user t's entries are [reach_offset[t],
  /// reach_offset[t + 1]) of reach_server (ascending server ids) and gain.
  std::vector<std::size_t> reach_offset;
  std::vector<std::size_t> reach_server;
  /// Channel gains g_{i,t} (channel-independent, Sec. 2.2), parallel to
  /// reach_server.
  std::vector<double> gain;
  /// Per-user transmit power p_j, watts.
  std::vector<double> power;
  /// Per-server per-channel bandwidth B_{i,x}, row-major N x X, MB/s.
  std::vector<double> bandwidth;
  /// Coverage sets V_j as server indices, ascending.
  std::vector<std::vector<std::size_t>> covering_servers;
  /// Noise floor w, watts.
  double noise_watts = 0.0;

  /// reach(t): the servers whose gain to user t is stored, ascending.
  [[nodiscard]] std::span<const std::size_t> reach(std::size_t user) const {
    return {reach_server.data() + reach_offset[user],
            reach_offset[user + 1] - reach_offset[user]};
  }
  /// User t's stored gains, parallel to reach(t).
  [[nodiscard]] std::span<const double> gains(std::size_t user) const {
    return {gain.data() + reach_offset[user],
            reach_offset[user + 1] - reach_offset[user]};
  }
  [[nodiscard]] std::span<double> gains(std::size_t user) {
    return {gain.data() + reach_offset[user],
            reach_offset[user + 1] - reach_offset[user]};
  }
  /// g_{server,user}. The entry must be stored (server in reach(user));
  /// a missing entry is a broken invariant, never a silent zero.
  [[nodiscard]] double gain_at(std::size_t server, std::size_t user) const {
    const std::span<const std::size_t> row = reach(user);
    const auto it = std::lower_bound(row.begin(), row.end(), server);
    IDDE_ASSERT(it != row.end() && *it == server,
                "channel gain outside the user's reach is not stored");
    return gains(user)[static_cast<std::size_t>(it - row.begin())];
  }
  [[nodiscard]] double bandwidth_mbps_at(std::size_t server,
                                    std::size_t channel) const {
    return bandwidth[server * channels_per_server + channel];
  }
  /// Derives reach_offset/reach_server from covering_servers and
  /// neighbours and sizes gain to match (new entries zero); callers then
  /// fill each user's gains(t) in reach(t) order.
  void index_reach();
  /// Brings the reach CSR up to date after the coverage sets of the users
  /// in `changed` (ascending ids) changed: re-derives their reach(t) with
  /// append_reach and copies every other row, which gives index_reach()'s
  /// rows. The CSR is rebuilt into `spare_offset`/`spare_server` and
  /// swapped in, so a caller that keeps the spares allocates nothing once
  /// they are large enough. gain is resized to match and its entries are
  /// stale: callers then rewrite every user's gains(t).
  void reindex_reach(std::span<const std::size_t> changed,
                     std::vector<std::size_t>& spare_offset,
                     std::vector<std::size_t>& spare_server);
  /// Validates shapes, value ranges, the neighbour lists, the reach index
  /// and the closure invariant; throws util::ValidationError on the first
  /// inconsistency (environments come from files and generator parameters
  /// — bad input must surface as a structured CLI error, not an abort; see
  /// src/util/error.hpp).
  void check() const;
};

/// Appends reach(t) = the union of neighbours[o] over o in `covering`,
/// ascending and duplicate-free, to `out`.
void append_reach(const std::vector<std::vector<std::size_t>>& neighbours,
                  std::span<const std::size_t> covering,
                  std::vector<std::size_t>& out);

/// A user's channel assignment. `kUnallocated` encodes alpha_j = (0, 0).
struct ChannelSlot {
  std::size_t server = kNone;
  std::size_t channel = 0;

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  [[nodiscard]] bool allocated() const noexcept { return server != kNone; }
  friend bool operator==(const ChannelSlot&, const ChannelSlot&) = default;
};

inline constexpr ChannelSlot kUnallocated{};

/// Delta report of the field's most recent mutation. A mutation perturbs at
/// most two channel slots (`from` and `to`); every cached quantity that
/// depends only on *other* slots is still valid afterwards — the invariant
/// the game's incremental dirty-set tracking is built on.
struct MoveDelta {
  std::size_t user = ChannelSlot::kNone;
  ChannelSlot from = kUnallocated;  ///< slot vacated (kUnallocated on add)
  ChannelSlot to = kUnallocated;    ///< slot entered (kUnallocated on remove)
  std::uint64_t version = 0;        ///< field version after the mutation
};

/// Thread-compatibility contract (relied on by core::IddeUGame's parallel
/// dirty-set refresh and stress-tested under TSan): the field is
/// *thread-compatible*, not thread-safe. Concurrent calls to the const
/// evaluation API (sinr/rate_mbps/benefit/slot_of/channel_power_watts/version/
/// slot_version/last_move) are race-free because they only read; any
/// mutation (add_user/remove_user/move_user/clear) requires exclusive
/// access externally — there is deliberately no internal lock, because the
/// game alternates strictly between a serial mutation phase and a parallel
/// read-only phase, and a per-call lock would serialise the hot path. The
/// version counters double as the enforcement hook: parallel readers
/// snapshot version() and assert it unchanged afterwards.
class InterferenceField {
 public:
  /// The environment must outlive the field.
  explicit InterferenceField(const RadioEnvironment& env);

  /// Places user j on (server, channel); j must currently be unallocated
  /// and `server` must cover j (Eq. 1) — asserted, since only then are the
  /// gains the move writes stored.
  void add_user(std::size_t user, ChannelSlot slot);
  /// Removes user j from its current channel; no-op when unallocated.
  void remove_user(std::size_t user);
  /// remove + add in one call.
  void move_user(std::size_t user, ChannelSlot slot);
  /// Removes every user.
  void clear();

  [[nodiscard]] ChannelSlot slot_of(std::size_t user) const {
    return allocation_[user];
  }

  /// SINR of user j as if allocated at `slot` (Eq. 2). The user's own
  /// current contribution is excluded wherever it is, so this evaluates
  /// hypothetical moves without mutating state. `slot.server` must cover
  /// j, like add_user.
  [[nodiscard]] double sinr(std::size_t user, ChannelSlot slot) const;

  /// Shannon rate (Eq. 3) at the hypothetical slot; MB/s, uncapped.
  [[nodiscard]] double rate_mbps(std::size_t user, ChannelSlot slot) const;

  /// Game benefit (Eq. 12) at the hypothetical slot.
  [[nodiscard]] double benefit(std::size_t user, ChannelSlot slot) const;

  /// Total received power on (i,x) (sum of p_t of users allocated there).
  [[nodiscard]] double channel_power_watts(std::size_t server,
                                     std::size_t channel) const {
    return power_sum_[server * env_->channels_per_server + channel];
  }

  [[nodiscard]] const RadioEnvironment& env() const noexcept { return *env_; }

  /// Monotone mutation counter: bumped once per add/remove (twice per move).
  /// Equal versions imply an identical field; consumers cache against it.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Per-channel-slot version: bumped whenever the slot's power sum or
  /// received-power row changes. A cached evaluation that only read slots
  /// whose versions are unchanged is still exact.
  [[nodiscard]] std::uint64_t slot_version(ChannelSlot slot) const {
    IDDE_EXPECTS(slot.allocated());
    return slot_version_[chan_index(slot)];
  }

  /// The most recent mutation (user == ChannelSlot::kNone before the first
  /// one and after clear()). move_user reports one combined delta.
  [[nodiscard]] const MoveDelta& last_move() const noexcept {
    return last_move_;
  }

 private:
  /// BatchEvaluator reads power_sum_/received_/users_on_ directly so its
  /// candidate sweep can stream whole received-power rows; it obeys the
  /// same read-only thread-compatibility contract as the public
  /// evaluation API and never mutates the field.
  friend class BatchEvaluator;

  /// F_{i,x,j} with user j's own contribution excluded.
  [[nodiscard]] double cross_cell_interference_watts(std::size_t user,
                                               ChannelSlot slot) const;
  /// In-cell interference power at `slot` excluding user j: the
  /// g_{i,j} * sum_{t in U_{i,x} \ j} p_t term of Eq. 2.
  [[nodiscard]] double in_cell_power_excluding_watts(std::size_t user,
                                               ChannelSlot slot) const;

  /// Asserts Eq. 1 for a slot the field is asked to write or price: the
  /// slot's server covers the user, so every gain the call reads is stored.
  void assert_covers(std::size_t user, ChannelSlot slot) const;

  [[nodiscard]] std::size_t chan_index(ChannelSlot slot) const {
    return slot.server * env_->channels_per_server + slot.channel;
  }

  const RadioEnvironment* env_;
  std::vector<ChannelSlot> allocation_;
  /// power_sum_[i * X + x] = sum of p_t over users on c_{i,x}.
  std::vector<double> power_sum_;
  /// received_[(o * X + x) * N + i] = sum_{t in U_{o,x}} g_{i,t} p_t for
  /// i in nbr(o); every other column stays 0 and is never read.
  std::vector<double> received_;
  /// Users currently on each channel. When a channel empties, its power
  /// and received-power rows are zeroed exactly: subtraction residues
  /// (~1e-21 W) are otherwise the same order as the -174 dBm noise floor
  /// and would corrupt SINRs on quiet channels.
  std::vector<std::size_t> users_on_;
  /// Change tracking (see version()/slot_version()/last_move()).
  std::uint64_t version_ = 0;
  std::vector<std::uint64_t> slot_version_;
  MoveDelta last_move_;
};

}  // namespace idde::radio
