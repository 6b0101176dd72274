#include "oracles/radio_reference.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace idde::oracle {

double sinr_reference(const radio::RadioEnvironment& env,
                      std::span<const radio::ChannelSlot> allocation,
                      std::size_t user, radio::ChannelSlot slot) {
  IDDE_EXPECTS(allocation.size() == env.user_count);
  IDDE_EXPECTS(slot.allocated());
  const double g = env.gain_at(slot.server, user);
  double in_cell = 0.0;
  double cross = 0.0;
  const auto& covering = env.covering_servers[user];
  for (std::size_t t = 0; t < env.user_count; ++t) {
    if (t == user) continue;
    const radio::ChannelSlot ts = allocation[t];
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

double benefit_reference(const radio::RadioEnvironment& env,
                         std::span<const radio::ChannelSlot> allocation,
                         std::size_t user, radio::ChannelSlot slot) {
  IDDE_EXPECTS(allocation.size() == env.user_count);
  IDDE_EXPECTS(slot.allocated());
  const double g = env.gain_at(slot.server, user);
  // Eq. (12): the in-cell sum includes u_j's own power and there is no
  // noise term (cf. benefit() on radio::InterferenceField).
  double in_cell = env.power[user];
  double cross = 0.0;
  const auto& covering = env.covering_servers[user];
  for (std::size_t t = 0; t < env.user_count; ++t) {
    if (t == user) continue;
    const radio::ChannelSlot ts = allocation[t];
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

}  // namespace idde::oracle
