#pragma once

/// \file telemetry.hpp
/// Process-global telemetry facade: one MetricsRegistry + one
/// SpanCollector shared by every library, plus the instrumentation macros
/// the hot paths use.
///
/// The macros intern names once per call site (function-local static id)
/// and compile to nothing when the library is configured with
/// -DPRAN_TELEMETRY=OFF — the classes stay available either way, only the
/// global instrumentation points vanish. Keep per-call overhead in mind:
/// PRAN_SPAN is two clock reads plus a ring write; the counter/histogram
/// macros are one relaxed fetch_add.

#include <string>
#include <string_view>

#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

#ifndef PRAN_TELEMETRY_ENABLED
#define PRAN_TELEMETRY_ENABLED 1
#endif

namespace pran::telemetry {

/// True when the build has global instrumentation compiled in.
constexpr bool enabled() noexcept { return PRAN_TELEMETRY_ENABLED != 0; }

/// Process-global registry / collector (constructed on first use, never
/// destroyed, so instrumented code may run during static teardown).
MetricsRegistry& registry();
SpanCollector& spans();

/// Resets the global registry and collector to empty (tests and
/// multi-sweep tools; callers must quiesce recording threads first).
void reset_for_testing();

/// Serialises registry() (with spans() folded in as span_us.* histograms)
/// to `path`. Format by extension: .json → MetricsSnapshot::to_json,
/// anything else → to_csv. Throws ContractViolation if the file cannot be
/// written.
void write_metrics_file(const std::string& path);

/// Writes spans() as Chrome trace-event JSON to `path` (open in Perfetto
/// or chrome://tracing).
void write_chrome_trace_file(const std::string& path);

}  // namespace pran::telemetry

#if PRAN_TELEMETRY_ENABLED

#define PRAN_TELEMETRY_CONCAT_IMPL(a, b) a##b
#define PRAN_TELEMETRY_CONCAT(a, b) PRAN_TELEMETRY_CONCAT_IMPL(a, b)

/// Scoped wall-clock span around the enclosing block:
///   PRAN_SPAN("turbo_decode");
///   PRAN_SPAN("turbo_decode", cell_id);
///   PRAN_SPAN("turbo_decode", cell_id, subframe);
#define PRAN_SPAN(name_literal, ...)                                        \
  static const std::uint32_t PRAN_TELEMETRY_CONCAT(pran_span_id_,           \
                                                   __LINE__) =             \
      ::pran::telemetry::spans().intern(name_literal);                      \
  ::pran::telemetry::ScopedSpan PRAN_TELEMETRY_CONCAT(pran_span_,           \
                                                      __LINE__)(           \
      ::pran::telemetry::spans(),                                           \
      PRAN_TELEMETRY_CONCAT(pran_span_id_, __LINE__) __VA_OPT__(, )         \
          __VA_ARGS__)

/// Adds `n` (default 1) to the named global counter.
#define PRAN_COUNTER_ADD(name_literal, n)                                   \
  do {                                                                      \
    static const ::pran::telemetry::CounterId pran_counter_id =             \
        ::pran::telemetry::registry().counter(name_literal);                \
    ::pran::telemetry::registry().add(pran_counter_id, (n));                \
  } while (false)

#define PRAN_COUNTER_INC(name_literal) PRAN_COUNTER_ADD(name_literal, 1)

/// Last-write-wins gauge store (end-of-run KPI values).
#define PRAN_GAUGE_SET(name_literal, value)                                 \
  do {                                                                      \
    static const ::pran::telemetry::GaugeId pran_gauge_id =                 \
        ::pran::telemetry::registry().gauge(name_literal);                  \
    ::pran::telemetry::registry().set(pran_gauge_id, (value));              \
  } while (false)

/// Observes `value` into a named histogram with fixed bounds; bounds must
/// match across call sites for the same name.
#define PRAN_HIST_OBSERVE(name_literal, lo, hi, bins, value)                \
  do {                                                                      \
    static const ::pran::telemetry::HistogramId pran_hist_id =              \
        ::pran::telemetry::registry().histogram(name_literal, (lo), (hi),   \
                                                (bins));                    \
    ::pran::telemetry::registry().observe(pran_hist_id, (value));           \
  } while (false)

/// Interval on a simulated-time track (server lane, cell lane...).
#define PRAN_SIM_SPAN(name_literal, track, start_sim_ns, duration_ns, ...)  \
  do {                                                                      \
    static const std::uint32_t pran_sim_span_id =                           \
        ::pran::telemetry::spans().intern(name_literal);                    \
    ::pran::telemetry::spans().emit_sim(pran_sim_span_id, (track),          \
                                        (start_sim_ns),                     \
                                        (duration_ns)__VA_OPT__(, )         \
                                            __VA_ARGS__);                   \
  } while (false)

#else  // PRAN_TELEMETRY_ENABLED

#define PRAN_SPAN(name_literal, ...) \
  do {                               \
  } while (false)
#define PRAN_COUNTER_ADD(name_literal, n) \
  do {                                    \
  } while (false)
#define PRAN_COUNTER_INC(name_literal) \
  do {                                 \
  } while (false)
#define PRAN_GAUGE_SET(name_literal, value) \
  do {                                      \
  } while (false)
#define PRAN_HIST_OBSERVE(name_literal, lo, hi, bins, value) \
  do {                                                       \
  } while (false)
#define PRAN_SIM_SPAN(name_literal, track, start_sim_ns, duration_ns, ...) \
  do {                                                                     \
  } while (false)

#endif  // PRAN_TELEMETRY_ENABLED
