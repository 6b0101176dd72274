// DES water-filling: the link-indexed des::detail::assign_max_min_rates
// must set every leg's rate bit for bit as the full-scan oracle does, on
// random, tie-heavy and degenerate leg sets, and with one scratch reused
// across calls of any size.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "des/fluid.hpp"
#include "oracles/scan_max_min.hpp"
#include "util/random.hpp"

namespace {

using namespace idde;
using des::detail::FluidScratch;
using des::detail::Leg;

struct Case {
  std::vector<double> capacities;
  std::vector<Leg> legs;
};

void shuffle(std::vector<std::size_t>& v, util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.index(i)]);
  }
}

/// `hops` distinct links out of `link_count`, in random (non-monotone) order.
std::vector<std::size_t> random_route(std::size_t hops, std::size_t link_count,
                                      util::Rng& rng) {
  std::vector<std::size_t> route;
  while (route.size() < hops) {
    const std::size_t l = rng.index(link_count);
    bool fresh = true;
    for (const std::size_t seen : route) fresh = fresh && seen != l;
    if (fresh) route.push_back(l);
  }
  return route;
}

Leg make_leg(std::vector<std::size_t> links) {
  Leg leg;
  leg.links = std::move(links);
  leg.rate_mbps = -1.0;
  return leg;
}

/// `legs` legs with 1..max_hops links each over `link_count` links of
/// random capacity.
Case random_case(std::size_t legs, std::size_t link_count,
                 std::size_t max_hops, util::Rng& rng) {
  Case c;
  for (std::size_t l = 0; l < link_count; ++l) {
    c.capacities.push_back(rng.uniform(0.5, 50.0));
  }
  const std::size_t hop_cap = std::min(max_hops, link_count);
  for (std::size_t f = 0; f < legs; ++f) {
    const std::size_t hops = 1 + rng.index(hop_cap);
    c.legs.push_back(make_leg(random_route(hops, link_count, rng)));
  }
  return c;
}

/// Redraws every capacity from {1, 2, 4}: ties between unrelated links in
/// every round, so any scan out of ascending link order changes the bits.
void tie_capacities(Case& c, util::Rng& rng) {
  for (double& capacity : c.capacities) {
    capacity = static_cast<double>(std::size_t{1} << rng.index(3));
  }
}

/// Every link has capacity `capacity` and carries the same number of legs
/// (each leg covers the same offsets from its own start link), so the first
/// round ties on every link and the fp residues of later rounds leave
/// near-ties whose bits depend on which link froze first.
Case forced_tie_case(double capacity, util::Rng& rng) {
  const std::size_t links = 3 + rng.index(60);
  const std::size_t hops = 1 + rng.index(std::min<std::size_t>(6, links));
  std::vector<std::size_t> offsets(links);
  for (std::size_t d = 0; d < links; ++d) offsets[d] = d;
  shuffle(offsets, rng);
  offsets.resize(hops);
  Case c;
  c.capacities.assign(links, capacity);
  const std::size_t per_link = 1 + rng.index(5);
  for (std::size_t l = 0; l < links; ++l) {
    for (std::size_t k = 0; k < per_link; ++k) {
      std::vector<std::size_t> route;
      for (const std::size_t d : offsets) route.push_back((l + d) % links);
      shuffle(route, rng);
      c.legs.push_back(make_leg(std::move(route)));
    }
  }
  return c;
}

/// Runs the indexed solve on `legs` with `scratch` and the oracle on a copy
/// with a fresh scratch; every rate must match bit for bit.
void expect_matches_oracle(std::vector<Leg> legs,
                           const std::vector<double>& capacities,
                           FluidScratch& scratch) {
  std::vector<Leg> expected = legs;
  FluidScratch oracle_scratch;
  oracle::scan_max_min_rates(expected, capacities, oracle_scratch);
  const std::size_t rounds =
      des::detail::assign_max_min_rates(legs, capacities, scratch);
  ASSERT_EQ(legs.size(), expected.size());
  for (std::size_t f = 0; f < legs.size(); ++f) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(legs[f].rate_mbps),
              std::bit_cast<std::uint64_t>(expected[f].rate_mbps))
        << "leg " << f << " of " << legs.size() << ": " << legs[f].rate_mbps
        << " vs oracle " << expected[f].rate_mbps;
  }
  EXPECT_LE(rounds, legs.size());
  EXPECT_EQ(rounds == 0, legs.empty());
}

void expect_matches_oracle(const Case& c) {
  FluidScratch scratch;
  expect_matches_oracle(c.legs, c.capacities, scratch);
}

TEST(Fluid, RandomCasesMatchOracleBitForBit) {
  util::Rng rng(16);
  for (const std::size_t legs : {1u, 2u, 7u, 60u, 400u, 3000u}) {
    for (std::size_t rep = 0; rep < 4; ++rep) {
      const std::size_t links = 1 + rng.index(800);
      expect_matches_oracle(random_case(legs, links, 6, rng));
    }
  }
  for (std::size_t rep = 0; rep < 30; ++rep) {
    const std::size_t legs = 1 + rng.index(3000);
    const std::size_t links = 1 + rng.index(1500);
    expect_matches_oracle(random_case(legs, links, 1 + rng.index(6), rng));
  }
}

TEST(Fluid, ForcedTiesMatchOracleBitForBit) {
  util::Rng rng(17);
  for (const double capacity : {0.1, 1.0 / 3.0, 7.0, 0.3}) {
    for (std::size_t rep = 0; rep < 6; ++rep) {
      expect_matches_oracle(forced_tie_case(capacity, rng));
    }
  }
}

TEST(Fluid, CapacitiesFromASmallSetMatchOracle) {
  util::Rng rng(18);
  for (std::size_t rep = 0; rep < 20; ++rep) {
    Case c = random_case(1 + rng.index(1000), 2 + rng.index(200), 6, rng);
    tie_capacities(c, rng);
    expect_matches_oracle(c);
  }
}

TEST(Fluid, OneLinkSharedByEveryLeg) {
  util::Rng rng(19);
  for (const std::size_t legs : {1u, 5u, 300u, 3000u}) {
    Case c = random_case(legs, 40, 5, rng);
    const std::size_t shared = 17;
    for (Leg& leg : c.legs) {
      bool has = false;
      for (const std::size_t l : leg.links) has = has || l == shared;
      if (!has) {
        const std::size_t at = rng.index(leg.links.size() + 1);
        leg.links.insert(leg.links.begin() + static_cast<std::ptrdiff_t>(at),
                         shared);
      }
    }
    expect_matches_oracle(c);
  }
}

TEST(Fluid, SingleLegGetsItsTightestLink) {
  util::Rng rng(20);
  for (std::size_t hops = 1; hops <= 6; ++hops) {
    Case c = random_case(1, 30, 6, rng);
    c.legs[0].links = random_route(hops, 30, rng);
    double tightest = c.capacities[c.legs[0].links[0]];
    for (const std::size_t l : c.legs[0].links) {
      tightest = std::min(tightest, c.capacities[l]);
    }
    FluidScratch scratch;
    std::vector<Leg> legs = c.legs;
    EXPECT_EQ(des::detail::assign_max_min_rates(legs, c.capacities, scratch),
              1u);
    EXPECT_EQ(legs[0].rate_mbps, tightest);
    expect_matches_oracle(c);
  }
}

TEST(Fluid, SwapWithBackRemovalsKeepMatching) {
  // The DES drops a landed leg by moving the last leg into its slot, so the
  // active set's link ids follow no order; one scratch serves every solve.
  util::Rng rng(21);
  Case c = random_case(600, 120, 6, rng);
  tie_capacities(c, rng);
  FluidScratch scratch;
  while (!c.legs.empty()) {
    expect_matches_oracle(c.legs, c.capacities, scratch);
    for (std::size_t drop = 0; drop < 1 + c.legs.size() / 8; ++drop) {
      const std::size_t f = rng.index(c.legs.size());
      if (f + 1 != c.legs.size()) c.legs[f] = std::move(c.legs.back());
      c.legs.pop_back();
      if (c.legs.empty()) break;
    }
  }
  expect_matches_oracle(c.legs, c.capacities, scratch);
}

TEST(Fluid, ReusedScratchShrinksAndGrows) {
  // Large random solves alternate with small tie-heavy ones on one scratch:
  // index state left over from a bigger call must not reorder a smaller
  // call's scan.
  util::Rng rng(22);
  FluidScratch scratch;
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {3000, 900}, {500, 900}, {12, 40}, {1, 3},   {0, 10},
      {40, 2000},  {3000, 300}, {2, 1},  {2500, 1200}};
  for (const auto& [legs, links] : shapes) {
    Case c = random_case(legs, links, 6, rng);
    expect_matches_oracle(c.legs, c.capacities, scratch);
    tie_capacities(c, rng);
    expect_matches_oracle(c.legs, c.capacities, scratch);
    for (const double capacity : {0.1, 0.3}) {
      const Case tied = forced_tie_case(capacity, rng);
      expect_matches_oracle(tied.legs, tied.capacities, scratch);
    }
  }
}

}  // namespace
