// Fixture: oracle-in-production fires on an oracles/ include and on every
// spelling of the idde::oracle namespace in library code. A commented-out
// include, a string and this comment (oracle::full_scan_game) stay quiet.
#include <vector>

#include "oracles/full_scan_game.hpp"
#include "tests/oracles/full_scan_game.hpp"  // lint: allow(oracle-in-production)
// #include "oracles/full_scan_game.hpp"

namespace idde::core {

int solve_with_oracle() {
  const auto a = idde::oracle::full_scan_game();
  const auto b = oracle::full_scan_game();
  const char* label = "oracle::full_scan_game";
  (void)label;
  return a + b;
}

}  // namespace idde::core

namespace idde {
namespace oracle {
int helper();
}  // namespace oracle
}  // namespace idde

// A from-scratch reference left in library code fires by its name, and so
// does the allocation waiver of a rebuild oracle's loop. The name in this
// comment (benefit_reference) and a waived declaration stay quiet.
namespace idde::radio {

double sinr_reference(double gain);
double benefit_reference(double gain);  // lint: allow(oracle-in-production)

void rebuild(std::vector<int>& out) {
  out.push_back(1);  // lint: alloc-ok(oracle)
}

}  // namespace idde::radio
