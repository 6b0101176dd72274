// The four closed-loop workloads of the end-to-end benchmark (README.md
// says why each one exists). A workload is driven one op at a time by
// main.cpp; it builds its inputs from the seed, calls the library only
// through public functions, wraps every call into a layer in a Scope, and
// checks every output it gets back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Result of one op (or one set-up). A failed check records why and never
/// aborts: the op counts as failed and the loop goes on.
struct OpOutcome {
  std::vector<std::string> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
  void fail(std::string why) { failures.push_back(std::move(why)); }
};

/// Named values, ordered by name so a digest over them is canonical.
using Values = std::map<std::string, double>;

struct WorkloadOptions {
  std::uint64_t seed = 1;
  /// Same code path, smaller sizes and a shorter round (the benchmark's
  /// own tests use it).
  bool short_mode = false;
  /// sweep-paper only: when >= 0, every op runs this Table-2 point on
  /// instance `pin_instance_seed` with the input filter off — how the
  /// tests reproduce a known failing instance.
  std::int64_t pin_point = -1;
  std::uint64_t pin_instance_seed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds everything the op loop reuses and starts over at op 0. Called
  /// several times per run; each call is one set-up time sample.
  virtual OpOutcome setup(SpanLog& spans) = 0;

  /// Runs op `op`; ops are numbered 0, 1, 2, ... after each setup().
  virtual OpOutcome run_op(std::uint64_t op, SpanLog& spans) = 0;

  /// Ops in one round. Round 0 always runs in full, whatever the time
  /// budget, so that exact() is a pure function of (workload, seed, mode).
  [[nodiscard]] virtual std::size_t round_size() const = 0;

  /// Exact counts and quality metrics ("quality.*") of round 0; complete
  /// once op round_size() - 1 has run.
  [[nodiscard]] const Values& exact() const { return exact_; }

  /// Work counts over every op since setup() (flows, events, ...), the
  /// numerators of the per-layer throughput metrics. Not exact: they grow
  /// with the time budget.
  [[nodiscard]] const Values& work() const { return work_; }

 protected:
  Values exact_;
  Values work_;
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, const WorkloadOptions& options);

}  // namespace perfbench
