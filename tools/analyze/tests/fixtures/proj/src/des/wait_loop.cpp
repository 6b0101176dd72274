// Fixture: wait-for-completion loops in the DES scope with no deadline,
// retry budget, or timeout anywhere in the file —
// unhedged-wait fires on the pending-watch loop; the in-flight drain is
// inline-suppressed and counts as suppressed, not found.
#include <cstddef>

namespace fixture {

struct Engine {
  std::size_t pending = 0;
  std::size_t in_flight = 0;
  void step();
};

void drain_everything(Engine& engine) {
  while (engine.pending > 0) {  // finding: nothing can preempt this wait
    engine.step();
  }
}

void drain_in_flight(Engine& engine) {
  while (engine.in_flight > 0) {  // lint: allow(unhedged-wait)
    engine.step();
  }
}

}  // namespace fixture
