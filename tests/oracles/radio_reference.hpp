// Test/bench oracles for the interference engine: from-scratch SINR
// (Eq. 2) and game benefit (Eq. 12).
//
// Each call scans every user for the in-cell and cross-cell sums, with no
// power sums or received-power rows: O(M + sum |V_j|) per call instead of
// radio::InterferenceField's O(|V_j|). tests/test_radio.cpp,
// tests/test_batch_eval.cpp and tests/test_game_incremental.cpp hold the
// field, the batched kernel and the game's cached benefits to them;
// bench/ablation_sinr times the SINR one as the ablation baseline.
#pragma once

#include <cstddef>
#include <span>

#include "radio/interference.hpp"

namespace idde::oracle {

/// SINR of `user` as if allocated at `slot` under `allocation` (Eq. 2).
[[nodiscard]] double sinr_reference(
    const radio::RadioEnvironment& env,
    std::span<const radio::ChannelSlot> allocation, std::size_t user,
    radio::ChannelSlot slot);

/// Game benefit (Eq. 12), derived the same way as sinr_reference: full
/// power sum (own power included), no noise term.
[[nodiscard]] double benefit_reference(
    const radio::RadioEnvironment& env,
    std::span<const radio::ChannelSlot> allocation, std::size_t user,
    radio::ChannelSlot slot);

}  // namespace idde::oracle
