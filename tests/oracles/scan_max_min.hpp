// Test/bench oracle for the DES water-filling: the full-scan solve.
//
// Every freeze round scans every link for the tightest share and every leg
// for the bottleneck link in its route — no link index. The production
// des::detail::assign_max_min_rates must set every rate bit for bit as this
// does; tests/test_fluid.cpp and bench/perf_kernels hold it to that.
#pragma once

#include <vector>

#include "des/fluid.hpp"

namespace idde::oracle {

/// Max-min fair rates for `legs` over links of `capacities` (iterative
/// water-filling: repeatedly freeze the legs of the tightest link, lowest
/// link id on ties). Uses scratch.remaining_cap, unfrozen_count and frozen.
void scan_max_min_rates(std::vector<des::detail::Leg>& legs,
                        const std::vector<double>& capacities,
                        des::detail::FluidScratch& scratch);

}  // namespace idde::oracle
