// Benchmark-side span log: one record per call into a layer, kept in memory
// and written out when the run ends.
//
// A span carries its name, start, end, the span that caused it (parent) and
// the id of the op it belongs to. Names are "<layer>.<step>" with the layer
// named after the module the call enters (model, core, baselines, fault,
// des, serve); the root of every op is "bench.op", so the root's self time
// is the harness's own share. Spans are recorded only while the log is
// enabled — a disabled log costs one branch per call site.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Totals of the spans that share one name.
struct NameTotals {
  std::size_t count = 0;
  double total_ms = 0.0;  ///< wall time inside the span
  double self_ms = 0.0;   ///< total minus the time covered by child spans
};

class SpanLog {
 public:
  static constexpr std::int64_t kNoParent = -1;

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Op id stamped onto every span opened from now on.
  void set_op(std::uint64_t op) { op_ = op; }

  /// Opens a span as a child of the innermost open one. `name` must be a
  /// string literal (the log stores the pointer).
  std::size_t open(const char* name);
  void close(std::size_t index);

  /// Self/total time per span name over the trees whose root span is named
  /// `root_name` ("bench.op" for ops, "bench.setup" for set-up), so op
  /// shares never mix in set-up time.
  [[nodiscard]] std::map<std::string, NameTotals> totals_under(
      const char* root_name) const;

  /// The spans in the Chrome trace_event format obs::Tracer writes
  /// (complete "X" events, cat "idde", pid 1, sorted by ts); parent and op
  /// id travel in args.detail.
  [[nodiscard]] idde::util::Json chrome_trace() const;

 private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent;
    std::int64_t root;
    std::uint64_t op;
  };

  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::int64_t current_ = kNoParent;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer; a no-op when the log is off.
class Scope {
 public:
  Scope(SpanLog& log, const char* name)
      : log_(log.enabled() ? &log : nullptr),
        index_(log_ != nullptr ? log_->open(name) : 0) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

}  // namespace perfbench
