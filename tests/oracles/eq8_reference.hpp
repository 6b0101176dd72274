// Test oracles for Eq. 8, the delivery rule core::Eq8Resolver implements.
//
// best_delivery_seconds is the paper's replication rule written as the
// plain min over {replicas} ∪ {cloud}. k_of_n_seconds is the coded rule
// written from its definition: the minimum, over host subsets S with
// |S| <= k, of max(slowest leg in S, cloud top-up of the k - |S| missing
// fragments), with the whole item from the cloud when S is empty. Neither
// ranks legs or shares code with the resolver's leg selection;
// tests/test_coding.cpp, test_fault.cpp, test_net.cpp and
// test_core_delivery.cpp hold the resolver and core::DeliveryEvaluator to
// them bit for bit.
#pragma once

#include <cstddef>
#include <span>

#include "net/latency.hpp"

namespace idde::oracle {

/// Eq. 8 under replication: cheapest delivery of an item of `size_mb` to
/// server `to` from the replica hosts in `replica_hosts`, capped by the
/// cloud.
[[nodiscard]] double best_delivery_seconds(
    const net::DeliveryLatencyModel& latency,
    std::span<const std::size_t> replica_hosts, std::size_t to,
    double size_mb);

/// Eq. 8 for a k-of-n request served at `serving` from fragments on
/// `hosts` (any order, distinct): min over subsets S, |S| <= k, of
/// max(slowest edge leg in S, cloud transfer of k - |S| fragments). A
/// top-up of all k fragments is the whole item (`item_mb`), so k = 1 is
/// best_delivery_seconds bitwise.
[[nodiscard]] double k_of_n_seconds(const net::DeliveryLatencyModel& latency,
                                    std::span<const std::size_t> hosts,
                                    std::size_t serving, double item_mb,
                                    double fragment_mb, std::size_t k);

}  // namespace idde::oracle
