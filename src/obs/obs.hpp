// Umbrella header + instrumentation macros for the telemetry subsystem.
//
// Instrumented code uses only these macros (or ScopedSpan directly where
// the elapsed time is itself a result). Contract:
//   IDDE_OBS=0 build   — macros expand to nothing; zero code, zero cost.
//   IDDE_OBS=1 build   — each hit is one relaxed atomic load + branch when
//                        runtime-disabled (the default), and a handful of
//                        relaxed atomic ops when enabled. The metric handle
//                        is resolved through the registry once per call
//                        site (function-local static) — never per event.
// Because the handle binds once, a counter, gauge or histogram name must be
// a string literal: a name chosen at run time would count every later event
// under whichever name the site saw first. IDDE_OBS_COUNT, _GAUGE_SET and
// _HISTOGRAM reject anything else at compile time (in both builds); a
// site that must pick between names at run time needs one literal call
// site per name. Span names bind per span and may be chosen at run time.
// Instrumentation must be pure observation: it may not touch rng state,
// alter iteration order, or round differently — solver outputs are required
// to be bit-identical with telemetry on, off, and compiled out.
#pragma once

#include "obs/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace idde::obs {

/// Everything in one scrape: {"counters":…, "gauges":…, "histograms":…,
/// "spans":…} — the `telemetry` block bench reports embed.
[[nodiscard]] util::Json telemetry_json();

/// Zeroes the global registry and tracer (test isolation and per-run
/// scoping in tools). Call only at quiescent points.
void reset_all();

}  // namespace idde::obs

#if IDDE_OBS

#define IDDE_OBS_CONCAT_IMPL(a, b) a##b
#define IDDE_OBS_CONCAT(a, b) IDDE_OBS_CONCAT_IMPL(a, b)

/// Adds `n` to the named global counter.
#define IDDE_OBS_COUNT(name, n)                                             \
  do {                                                                      \
    if (::idde::obs::enabled()) {                                           \
      static ::idde::obs::Counter& IDDE_OBS_CONCAT(idde_obs_counter_,       \
                                                   __LINE__) =              \
          ::idde::obs::MetricsRegistry::global().counter("" name);          \
      IDDE_OBS_CONCAT(idde_obs_counter_, __LINE__).add(n);                  \
    }                                                                       \
  } while (0)

/// Sets the named global gauge to `v`.
#define IDDE_OBS_GAUGE_SET(name, v)                                         \
  do {                                                                      \
    if (::idde::obs::enabled()) {                                           \
      static ::idde::obs::Gauge& IDDE_OBS_CONCAT(idde_obs_gauge_,           \
                                                 __LINE__) =                \
          ::idde::obs::MetricsRegistry::global().gauge("" name);            \
      IDDE_OBS_CONCAT(idde_obs_gauge_, __LINE__)                            \
          .set(static_cast<std::int64_t>(v));                               \
    }                                                                       \
  } while (0)

/// Records `v` into the named global histogram.
#define IDDE_OBS_HISTOGRAM(name, v)                                         \
  do {                                                                      \
    if (::idde::obs::enabled()) {                                           \
      static ::idde::obs::Histogram& IDDE_OBS_CONCAT(idde_obs_histogram_,   \
                                                     __LINE__) =            \
          ::idde::obs::MetricsRegistry::global().histogram("" name);        \
      IDDE_OBS_CONCAT(idde_obs_histogram_, __LINE__)                        \
          .record(static_cast<double>(v));                                  \
    }                                                                       \
  } while (0)

/// Opens a phase span covering the rest of the enclosing scope.
#define IDDE_OBS_SPAN(name) \
  const ::idde::obs::ScopedSpan IDDE_OBS_CONCAT(idde_obs_span_, __LINE__)(name)

/// As IDDE_OBS_SPAN with a detail string (evaluated only when recording —
/// wrap anything costly in the trace_enabled() check yourself).
#define IDDE_OBS_SPAN_ARGS(name, args_expr)                  \
  const ::idde::obs::ScopedSpan IDDE_OBS_CONCAT(             \
      idde_obs_span_, __LINE__)(name, ::idde::obs::enabled() \
                                          ? (args_expr)      \
                                          : std::string())

#else  // IDDE_OBS == 0

// The sizeof operands keep the arguments "used" (so a variable counted
// only for telemetry does not warn) without evaluating them — a disabled
// build emits no code for any of these.
#define IDDE_OBS_COUNT(name, n)                \
  do {                                         \
    (void)sizeof("" name), (void)sizeof((n));  \
  } while (0)
#define IDDE_OBS_GAUGE_SET(name, v)            \
  do {                                         \
    (void)sizeof("" name), (void)sizeof((v));  \
  } while (0)
#define IDDE_OBS_HISTOGRAM(name, v)            \
  do {                                         \
    (void)sizeof("" name), (void)sizeof((v));  \
  } while (0)
#define IDDE_OBS_SPAN(name)                    \
  do {                                         \
    (void)sizeof(name);                        \
  } while (0)
#define IDDE_OBS_SPAN_ARGS(name, args_expr)    \
  do {                                         \
    (void)sizeof(name), (void)sizeof((args_expr)); \
  } while (0)

#endif  // IDDE_OBS
