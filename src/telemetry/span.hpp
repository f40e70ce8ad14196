#pragma once

/// \file span.hpp
/// Pipeline-stage spans: named wall-clock intervals, each counted when it
/// ends in the `span_us.<name>` histogram of a metrics registry and kept
/// in a per-thread ring buffer for Chrome trace-event JSON export
/// (loadable in Perfetto / chrome://tracing).
///
/// Spans time the host only. `ScopedSpan` (usually via the PRAN_SPAN
/// macro) measures real compute with the steady clock: kernel wrappers,
/// solver calls, the deployment tick. Each recording thread owns a lane,
/// so the hot path is a clock read, a ring write and a histogram
/// observation — no locks, no allocation. Simulated time never enters the
/// collector: a deployment records its own subframe jobs
/// (core/deployment.hpp).
///
/// Rings overwrite oldest-first once full (`dropped()` counts what fell
/// out), so a long run's trace keeps its tail while its histograms stay
/// complete. Reading APIs (records / to_chrome_trace) must only run while
/// no thread is recording — quiesce the pool first, like every sweep does.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "telemetry/clock.hpp"
#include "telemetry/registry.hpp"

namespace pran::telemetry {

/// Sentinel for "no argument" on a span.
inline constexpr std::int64_t kNoArg = INT64_MIN;

struct SpanRecord {
  std::uint32_t name_id = 0;
  std::int64_t start_ns = 0;  ///< ns since the collector's epoch_ns().
  std::int64_t duration_ns = 0;
  std::int64_t arg0 = kNoArg;
};

class SpanCollector {
 public:
  /// Thread lanes; threads beyond this drop their spans (counted).
  static constexpr unsigned kMaxLanes = 64;
  /// Span records kept per thread lane (ring buffer).
  static constexpr std::size_t kRingCapacity = 1u << 15;

  SpanCollector();
  ~SpanCollector();

  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  /// Interns a span name (mutex; cache the id — the PRAN_SPAN macro keeps
  /// it per thread, tagged with uid()).
  std::uint32_t intern(std::string_view name);
  const std::string& name(std::uint32_t id) const;

  /// Span recording, as ScopedSpan drives it: one lane lookup for the
  /// whole span lifecycle. begin_span() claims the calling thread's lane
  /// (nullptr on overflow); end_span() records into it. `start_ns` and
  /// `end_ns` are wall_now_ns() values. The opaque handle is only valid on
  /// the thread that called begin_span().
  void* begin_span() noexcept;
  void end_span(void* lane, std::uint32_t name_id, std::int64_t start_ns,
                std::int64_t end_ns, std::int64_t arg0) noexcept;

  /// All retained records, lane by lane (each lane oldest-first). Only
  /// call while no thread is recording.
  std::vector<SpanRecord> records() const;
  std::uint64_t recorded() const;  ///< Total ever recorded (incl. dropped).
  std::uint64_t dropped() const;   ///< Overwritten by ring wrap + lane overflow.
  void clear();

  /// Chrome trace-event JSON (object format, {"traceEvents": [...]}):
  /// process "wall-clock" with one row per recording thread. Loadable in
  /// Perfetto / chrome://tracing.
  std::string to_chrome_trace() const;

  /// The steady-clock ns all span start times are relative to.
  std::int64_t epoch_ns() const noexcept { return epoch_ns_; }

  unsigned lanes_in_use() const;

  /// Process-unique id of this collector, never reused: a cache of name
  /// ids tagged with it can tell when the collector it filled is gone.
  std::uint64_t uid() const noexcept { return collector_id_; }

 private:
  struct Lane {
    std::vector<SpanRecord> ring;
    std::uint64_t count = 0;  ///< Total pushed; ring keeps the last cap.
  };

  Lane* lane() noexcept;  ///< Calling thread's lane (nullptr on overflow).
  void push(Lane* lane, const SpanRecord& record) noexcept;

  std::uint64_t collector_id_;  ///< Unique per collector, keys TLS lookup.
  std::int64_t epoch_ns_;
  std::vector<Lane> lanes_;  ///< Sized kMaxLanes at construction, immutable.
  std::atomic<unsigned> lanes_used_{0};
  std::atomic<std::uint64_t> overflow_dropped_{0};

  mutable std::mutex names_mutex_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
};

/// RAII wall span: on destruction it records into `collector`'s ring and
/// observes its duration in µs into `histogram` of `registry`. Prefer the
/// PRAN_SPAN macro, which interns the name and registers
/// `span_us.<name>` once per call site, thread and collector or registry,
/// and compiles away under PRAN_TELEMETRY=OFF.
class ScopedSpan {
 public:
  ScopedSpan(SpanCollector& collector, std::uint32_t name_id,
             MetricsRegistry& registry, HistogramId histogram,
             std::int64_t arg0 = kNoArg) noexcept
      : collector_(collector),
        registry_(registry),
        name_id_(name_id),
        histogram_(histogram),
        arg0_(arg0),
        lane_(collector.begin_span()),
        start_ns_(wall_now_ns()) {}

  ~ScopedSpan() {
    const std::int64_t end_ns = wall_now_ns();
    collector_.end_span(lane_, name_id_, start_ns_, end_ns, arg0_);
    registry_.observe(histogram_,
                      static_cast<double>(end_ns - start_ns_) / 1e3);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanCollector& collector_;
  MetricsRegistry& registry_;
  std::uint32_t name_id_;
  HistogramId histogram_;
  std::int64_t arg0_;
  void* lane_;
  std::int64_t start_ns_;
};

}  // namespace pran::telemetry
