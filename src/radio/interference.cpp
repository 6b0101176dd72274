#include "radio/interference.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/error.hpp"

namespace idde::radio {

namespace {

/// Calls op(i, g_{i,user}) for every i in nbr(server), ascending: the
/// received-row columns a user on `server` contributes to. When `server`
/// covers the user, nbr(server) is a subset of reach(user), so one merge
/// walk finds every gain.
template <typename Op>
void for_each_neighbour_gain(const RadioEnvironment& env, std::size_t user,
                             std::size_t server, Op&& op) {
  const std::span<const std::size_t> reach = env.reach(user);
  const std::span<const double> gains = env.gains(user);
  std::size_t e = 0;
  for (const std::size_t i : env.neighbours[server]) {
    while (reach[e] < i) ++e;
    op(i, gains[e]);
  }
}

}  // namespace

void append_reach(const std::vector<std::vector<std::size_t>>& neighbours,
                  std::span<const std::size_t> covering,
                  std::vector<std::size_t>& out) {
  const std::size_t start = out.size();
  for (const std::size_t o : covering) {
    out.insert(out.end(), neighbours[o].begin(), neighbours[o].end());
  }
  if (covering.size() > 1) {
    const auto first = out.begin() + static_cast<std::ptrdiff_t>(start);
    std::sort(first, out.end());
    out.erase(std::unique(first, out.end()), out.end());
  }
}

void RadioEnvironment::index_reach() {
  reach_offset.assign(1, 0);
  reach_offset.reserve(user_count + 1);
  reach_server.clear();
  for (std::size_t t = 0; t < user_count; ++t) {
    append_reach(neighbours, covering_servers[t], reach_server);
    reach_offset.push_back(reach_server.size());
  }
  gain.assign(reach_server.size(), 0.0);
}

void RadioEnvironment::check() const {
  util::validate(power.size() == user_count,
                 "radio environment: power vector shape mismatch");
  util::validate(bandwidth.size() == server_count * channels_per_server,
                 "radio environment: bandwidth shape mismatch");
  util::validate(covering_servers.size() == user_count,
                 "radio environment: coverage shape mismatch");
  util::validate(neighbours.size() == server_count,
                 "radio environment: neighbour list shape mismatch");
  util::validate(reach_offset.size() == user_count + 1 &&
                     reach_offset.front() == 0 &&
                     reach_offset.back() == reach_server.size(),
                 "radio environment: reach index shape mismatch");
  util::validate(gain.size() == reach_server.size(),
                 "radio environment: gain shape mismatch");
  util::validate(channels_per_server > 0,
                 "radio environment: servers must expose channels");
  util::validate(noise_watts >= 0.0, "radio environment: negative noise power");
  for (const double g : gain) {
    util::validate(g >= 0.0, "radio environment: negative gain");
  }
  for (const double p : power) {
    util::validate(p > 0.0, "radio environment: non-positive power");
  }
  for (const double b : bandwidth) {
    util::validate(b > 0.0, "radio environment: non-positive bandwidth");
  }
  for (std::size_t o = 0; o < server_count; ++o) {
    const auto& nbr = neighbours[o];
    util::validate(std::adjacent_find(nbr.begin(), nbr.end(),
                                      std::greater_equal<>()) == nbr.end(),
                   "radio environment: neighbour lists must be strictly "
                   "ascending");
    util::validate(nbr.empty() || nbr.back() < server_count,
                   "radio environment: neighbour out of range");
    util::validate(std::binary_search(nbr.begin(), nbr.end(), o),
                   "radio environment: a server must neighbour itself");
  }
  std::vector<std::size_t> expected;
  for (std::size_t t = 0; t < user_count; ++t) {
    const auto& servers = covering_servers[t];
    util::validate(std::is_sorted(servers.begin(), servers.end()),
                   "radio environment: coverage sets must be sorted");
    for (const std::size_t i : servers) {
      util::validate(i < server_count,
                     "radio environment: coverage server out of range");
    }
    // Closure: every pair of servers covering a common user neighbour
    // each other, so Eq. 2/12 never read a gain outside reach(t).
    for (const std::size_t o : servers) {
      for (const std::size_t i : servers) {
        util::validate(std::binary_search(neighbours[o].begin(),
                                          neighbours[o].end(), i),
                       "radio environment: servers covering a common user "
                       "must neighbour each other");
      }
    }
    util::validate(reach_offset[t] <= reach_offset[t + 1],
                   "radio environment: reach index must be non-decreasing");
    expected.clear();
    append_reach(neighbours, servers, expected);
    const std::span<const std::size_t> row = reach(t);
    util::validate(std::equal(row.begin(), row.end(), expected.begin(),
                              expected.end()),
                   "radio environment: stored gains must cover exactly the "
                   "user's reach");
  }
}

InterferenceField::InterferenceField(const RadioEnvironment& env)
    : env_(&env),
      allocation_(env.user_count, kUnallocated),
      power_sum_(env.server_count * env.channels_per_server, 0.0),
      received_(env.server_count * env.channels_per_server * env.server_count,
                0.0),
      users_on_(env.server_count * env.channels_per_server, 0),
      slot_version_(env.server_count * env.channels_per_server, 0) {}

void InterferenceField::add_user(std::size_t user, ChannelSlot slot) {
  IDDE_EXPECTS(user < env_->user_count);
  IDDE_EXPECTS(slot.allocated());
  IDDE_EXPECTS(slot.server < env_->server_count);
  IDDE_EXPECTS(slot.channel < env_->channels_per_server);
  IDDE_ASSERT(!allocation_[user].allocated(), "user already allocated");
  assert_covers(user, slot);

  allocation_[user] = slot;
  const double p = env_->power[user];
  power_sum_[chan_index(slot)] += p;
  ++users_on_[chan_index(slot)];
  double* recv_row = received_.data() + chan_index(slot) * env_->server_count;
  // Only the columns i in nbr(o) are ever read (closure invariant); each
  // gets the same add as a full-row update would give it.
  for_each_neighbour_gain(
      *env_, user, slot.server,
      [&](std::size_t i, double g) { recv_row[i] += g * p; });
  ++slot_version_[chan_index(slot)];
  last_move_ = MoveDelta{user, kUnallocated, slot, ++version_};
}

void InterferenceField::remove_user(std::size_t user) {
  IDDE_EXPECTS(user < env_->user_count);
  const ChannelSlot slot = allocation_[user];
  if (!slot.allocated()) return;
  const double p = env_->power[user];
  power_sum_[chan_index(slot)] -= p;
  double* recv_row = received_.data() + chan_index(slot) * env_->server_count;
  for_each_neighbour_gain(
      *env_, user, slot.server,
      [&](std::size_t i, double g) { recv_row[i] -= g * p; });
  IDDE_ASSERT(users_on_[chan_index(slot)] > 0, "channel count underflow");
  if (--users_on_[chan_index(slot)] == 0) {
    // Zero the emptied channel exactly (see header note on residues); the
    // columns outside nbr(o) are zero already.
    power_sum_[chan_index(slot)] = 0.0;
    for (const std::size_t i : env_->neighbours[slot.server]) {
      recv_row[i] = 0.0;
    }
  }
  allocation_[user] = kUnallocated;
  ++slot_version_[chan_index(slot)];
  last_move_ = MoveDelta{user, slot, kUnallocated, ++version_};
}

void InterferenceField::move_user(std::size_t user, ChannelSlot slot) {
  const ChannelSlot from = allocation_[user];
  remove_user(user);
  if (slot.allocated()) add_user(user, slot);
  // Report remove + add as one delta so consumers see both perturbed slots.
  last_move_ = MoveDelta{user, from, slot.allocated() ? slot : kUnallocated,
                         version_};
}

void InterferenceField::clear() {
  std::fill(power_sum_.begin(), power_sum_.end(), 0.0);
  std::fill(received_.begin(), received_.end(), 0.0);
  std::fill(allocation_.begin(), allocation_.end(), kUnallocated);
  std::fill(users_on_.begin(), users_on_.end(), 0);
  for (std::uint64_t& v : slot_version_) ++v;
  last_move_ = MoveDelta{ChannelSlot::kNone, kUnallocated, kUnallocated,
                         ++version_};
}

void InterferenceField::assert_covers(std::size_t user,
                                      ChannelSlot slot) const {
  const auto& covering = env_->covering_servers[user];
  IDDE_ASSERT(std::binary_search(covering.begin(), covering.end(),
                                 slot.server),
              "slot server does not cover the user (Eq. 1)");
}

double InterferenceField::in_cell_power_excluding_watts(std::size_t user,
                                                  ChannelSlot slot) const {
  if (allocation_[user] == slot) {
    // Alone on the channel: exactly zero. Subtracting the user's own power
    // from the running sum would leave an O(eps * watts) residue, which is
    // *larger* than the -174 dBm noise floor and would corrupt the SINR.
    if (users_on_[chan_index(slot)] == 1) return 0.0;
    return std::max(power_sum_[chan_index(slot)] - env_->power[user], 0.0);
  }
  return power_sum_[chan_index(slot)];
}

double InterferenceField::cross_cell_interference_watts(std::size_t user,
                                                  ChannelSlot slot) const {
  const ChannelSlot current = allocation_[user];
  double total = 0.0;
  for (const std::size_t o : env_->covering_servers[user]) {
    if (o == slot.server) continue;
    const std::size_t ox =
        o * env_->channels_per_server + slot.channel;
    // Exclude the user's own current transmission if it lands in this sum;
    // when the user is alone there, the row contributes exactly zero (see
    // in_cell_power_excluding_watts for the residue rationale).
    if (current.allocated() && current.server == o &&
        current.channel == slot.channel) {
      if (users_on_[ox] == 1) continue;
      total += received_[ox * env_->server_count + slot.server] -
               env_->gain_at(slot.server, user) * env_->power[user];
    } else {
      total += received_[ox * env_->server_count + slot.server];
    }
  }
  return std::max(total, 0.0);
}

double InterferenceField::sinr(std::size_t user, ChannelSlot slot) const {
  IDDE_EXPECTS(user < env_->user_count);
  IDDE_EXPECTS(slot.allocated());
  assert_covers(user, slot);
  const double g = env_->gain_at(slot.server, user);
  const double signal = g * env_->power[user];
  const double in_cell = g * in_cell_power_excluding_watts(user, slot);
  const double cross = cross_cell_interference_watts(user, slot);
  return signal / (in_cell + cross + env_->noise_watts);
}

double InterferenceField::rate_mbps(std::size_t user, ChannelSlot slot) const {
  const double r = sinr(user, slot);
  return env_->bandwidth_mbps_at(slot.server, slot.channel) * std::log2(1.0 + r);
}

double InterferenceField::benefit(std::size_t user, ChannelSlot slot) const {
  IDDE_EXPECTS(user < env_->user_count);
  IDDE_EXPECTS(slot.allocated());
  assert_covers(user, slot);
  const double g = env_->gain_at(slot.server, user);
  const double p = env_->power[user];
  const double signal = g * p;
  // Eq. (12): the channel power sum includes u_j itself and there is no
  // noise term, so the benefit is bounded and comparisons never divide by
  // zero (the user's own power keeps the denominator positive).
  const double in_cell = g * (in_cell_power_excluding_watts(user, slot) + p);
  const double cross = cross_cell_interference_watts(user, slot);
  return signal / (in_cell + cross);
}

double sinr_reference(const RadioEnvironment& env,
                      std::span<const ChannelSlot> allocation,
                      std::size_t user, ChannelSlot slot) {
  IDDE_EXPECTS(allocation.size() == env.user_count);
  IDDE_EXPECTS(slot.allocated());
  const double g = env.gain_at(slot.server, user);
  double in_cell = 0.0;
  double cross = 0.0;
  const auto& covering = env.covering_servers[user];
  for (std::size_t t = 0; t < env.user_count; ++t) {
    if (t == user) continue;
    const ChannelSlot ts = allocation[t];
    if (!ts.allocated() || ts.channel != slot.channel) continue;
    if (ts.server == slot.server) {
      in_cell += env.power[t];
    } else if (std::binary_search(covering.begin(), covering.end(),
                                  ts.server)) {
      cross += env.gain_at(slot.server, t) * env.power[t];
    }
  }
  return g * env.power[user] / (g * in_cell + cross + env.noise_watts);
}

double benefit_reference(const RadioEnvironment& env,
                         std::span<const ChannelSlot> allocation,
                         std::size_t user, ChannelSlot slot) {
  IDDE_EXPECTS(allocation.size() == env.user_count);
  IDDE_EXPECTS(slot.allocated());
  const double g = env.gain_at(slot.server, user);
  // Eq. (12): the in-cell sum includes u_j's own power and there is no
  // noise term (cf. benefit() on the incremental field).
  double in_cell = env.power[user];
  double cross = 0.0;
  const auto& covering = env.covering_servers[user];
  for (std::size_t t = 0; t < env.user_count; ++t) {
    if (t == user) continue;
    const ChannelSlot ts = allocation[t];
    if (!ts.allocated() || ts.channel != slot.channel) continue;
    if (ts.server == slot.server) {
      in_cell += env.power[t];
    } else if (std::binary_search(covering.begin(), covering.end(),
                                  ts.server)) {
      cross += env.gain_at(slot.server, t) * env.power[t];
    }
  }
  return g * env.power[user] / (g * in_cell + cross);
}

}  // namespace idde::radio
