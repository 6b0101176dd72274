#include "spans.hpp"

#include <cstring>

namespace perfbench {

namespace {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

std::size_t SpanLog::open(const char* name) {
  const auto index = static_cast<std::int64_t>(spans_.size());
  const std::int64_t root = current_ == kNoParent
                                ? index
                                : spans_[static_cast<std::size_t>(current_)].root;
  spans_.push_back(Span{name, Clock::now(), {}, current_, root, op_});
  current_ = index;
  return static_cast<std::size_t>(index);
}

void SpanLog::close(std::size_t index) {
  Span& span = spans_[index];
  span.end = Clock::now();
  current_ = span.parent;
}

std::map<std::string, NameTotals> SpanLog::totals_under(
    const char* root_name) const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_ms[static_cast<std::size_t>(span.parent)] +=
          ms_between(span.start, span.end);
    }
  }
  std::map<std::string, NameTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (std::strcmp(spans_[static_cast<std::size_t>(span.root)].name,
                    root_name) != 0) {
      continue;
    }
    const double total = ms_between(span.start, span.end);
    NameTotals& entry = totals[span.name];
    ++entry.count;
    entry.total_ms += total;
    entry.self_ms += total - child_ms[i];
  }
  return totals;
}

idde::util::Json SpanLog::chrome_trace() const {
  idde::util::JsonArray events;
  events.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    idde::util::JsonObject event;
    event["name"] = std::string(span.name);
    event["cat"] = std::string("idde");
    event["ph"] = std::string("X");
    event["ts"] = ms_between(origin_, span.start) * 1e3;
    event["dur"] = ms_between(span.start, span.end) * 1e3;
    event["pid"] = 1;
    event["tid"] = 0;
    idde::util::JsonObject args;
    args["detail"] = "id=" + std::to_string(i) +
                     " parent=" + std::to_string(span.parent) +
                     " op=" + std::to_string(span.op);
    event["args"] = std::move(args);
    events.emplace_back(std::move(event));
  }
  idde::util::JsonObject doc;
  doc["displayTimeUnit"] = std::string("ms");
  doc["traceEvents"] = std::move(events);
  return idde::util::Json(std::move(doc));
}

}  // namespace perfbench
