#pragma once

/// \file telemetry.hpp
/// Process-global telemetry facade — one MetricsRegistry that sweeps merge
/// their runs into, one wall-clock SpanCollector shared by every library —
/// plus the instrumentation macros the hot paths use.
///
/// The metric macros take the registry they write to as their first
/// argument (a Deployment passes its own; see core/deployment.hpp). Each
/// call site caches its metric id per thread, tagged with the registry's
/// uid(): the hot path is one compare plus one relaxed atomic, and the
/// site registers again whenever it meets a different registry. They
/// carry KPI data, so they stay compiled in at -DPRAN_TELEMETRY=OFF; OFF
/// removes only the span macros. PRAN_SPAN costs two clock reads, a ring
/// write and one observation into registry()'s `span_us.<name>`
/// histogram. The site caches that histogram's id the same way, and its
/// span name's id tagged with spans()'s uid(), so a site keeps its own
/// name across reset_for_testing().

#include <string>
#include <string_view>

#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

#ifndef PRAN_TELEMETRY_ENABLED
#define PRAN_TELEMETRY_ENABLED 1
#endif

namespace pran::telemetry {

/// True when the build has the span macros compiled in.
constexpr bool enabled() noexcept { return PRAN_TELEMETRY_ENABLED != 0; }

/// Process-global registry / collector (constructed on first use, never
/// destroyed, so instrumented code may run during static teardown). The
/// registry holds what `write_metrics_file` exports: every span's
/// `span_us.<name>` histogram, and each run's registry that a tool merges
/// into it. The collector's ring only feeds `write_chrome_trace_file`.
MetricsRegistry& registry();
SpanCollector& spans();

/// Resets the global registry and collector to empty (tests and
/// multi-sweep tools; callers must quiesce recording threads first).
void reset_for_testing();

/// Serialises registry() to `path`, after setting the `spans.recorded` /
/// `spans.dropped` gauges of the trace ring. Format by extension: .json →
/// MetricsSnapshot::to_json, anything else → to_csv. Throws
/// ContractViolation if the file cannot be written.
void write_metrics_file(const std::string& path);

/// Writes spans() as Chrome trace-event JSON to `path` (open in Perfetto
/// or chrome://tracing).
void write_chrome_trace_file(const std::string& path);

namespace detail {

/// A call site's id, tagged with the registry or collector it was
/// registered in.
struct SiteId {
  std::uint64_t owner_uid = 0;  ///< 0: not registered on this thread.
  std::uint32_t index = 0;
};

/// The id of call site `Site` (a lambda type unique to each macro
/// expansion) in `owner`, a MetricsRegistry or a SpanCollector;
/// `register_id()` runs when the calling thread's cached id belongs to
/// another owner.
template <typename Owner, typename Site>
std::uint32_t site_index(const Owner& owner, const Site& register_id) {
  // pran-lint: allow(determinism-hazard) -- per-thread memo of one call
  // site's (owner uid -> id); a miss registers again by name, so the
  // cache never changes which series or span name a record lands in.
  thread_local SiteId cached;
  if (cached.owner_uid != owner.uid())
    cached = SiteId{owner.uid(), register_id()};
  return cached.index;
}

}  // namespace detail

}  // namespace pran::telemetry

/// Id of the enclosing macro's metric in `pran_reg`, registered by
/// `pran_reg.register_call` on a cache miss.
#define PRAN_TELEMETRY_SITE_INDEX(pran_reg, register_call) \
  ::pran::telemetry::detail::site_index(                   \
      pran_reg, [&pran_reg] { return pran_reg.register_call.index; })

/// Adds `n` to the named counter of registry `reg`.
#define PRAN_COUNTER_ADD(reg, name_literal, n)                             \
  do {                                                                     \
    ::pran::telemetry::MetricsRegistry& pran_reg = (reg);                  \
    pran_reg.add(::pran::telemetry::CounterId{PRAN_TELEMETRY_SITE_INDEX(   \
                     pran_reg, counter(name_literal))},                    \
                 (n));                                                     \
  } while (false)

#define PRAN_COUNTER_INC(reg, name_literal) \
  PRAN_COUNTER_ADD(reg, name_literal, 1)

/// Last-write-wins gauge store.
#define PRAN_GAUGE_SET(reg, name_literal, value)                           \
  do {                                                                     \
    ::pran::telemetry::MetricsRegistry& pran_reg = (reg);                  \
    pran_reg.set(::pran::telemetry::GaugeId{PRAN_TELEMETRY_SITE_INDEX(     \
                     pran_reg, gauge(name_literal))},                      \
                 (value));                                                 \
  } while (false)

/// Observes `value` into the named histogram (the registry's one layout).
#define PRAN_HIST_OBSERVE(reg, name_literal, value)                        \
  do {                                                                     \
    ::pran::telemetry::MetricsRegistry& pran_reg = (reg);                  \
    pran_reg.observe(::pran::telemetry::HistogramId{PRAN_TELEMETRY_SITE_INDEX( \
                         pran_reg, histogram(name_literal))},              \
                     (value));                                             \
  } while (false)

#if PRAN_TELEMETRY_ENABLED

#define PRAN_TELEMETRY_CONCAT_IMPL(a, b) a##b
#define PRAN_TELEMETRY_CONCAT(a, b) PRAN_TELEMETRY_CONCAT_IMPL(a, b)

/// Scoped wall-clock span around the enclosing block, counted in
/// registry()'s `span_us.<name>` histogram when it ends:
///   PRAN_SPAN("turbo_decode");
///   PRAN_SPAN("turbo_decode", cell_id);
#define PRAN_SPAN(name_literal, ...)                                        \
  ::pran::telemetry::ScopedSpan PRAN_TELEMETRY_CONCAT(pran_span_,           \
                                                      __LINE__)(           \
      ::pran::telemetry::spans(),                                           \
      ::pran::telemetry::detail::site_index(                                \
          ::pran::telemetry::spans(),                                       \
          [] { return ::pran::telemetry::spans().intern(name_literal); }),  \
      ::pran::telemetry::registry(),                                        \
      ::pran::telemetry::HistogramId{::pran::telemetry::detail::site_index( \
          ::pran::telemetry::registry(),                                    \
          [] {                                                              \
            return ::pran::telemetry::registry()                            \
                .histogram("span_us." name_literal)                         \
                .index;                                                     \
          })} __VA_OPT__(, ) __VA_ARGS__)

#else  // PRAN_TELEMETRY_ENABLED

#define PRAN_SPAN(name_literal, ...) \
  do {                               \
  } while (false)

#endif  // PRAN_TELEMETRY_ENABLED
