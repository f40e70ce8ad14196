#pragma once

/// \file timeseries.hpp
/// Windowed KPI time series over a MetricsRegistry: `sample(now)` closes
/// one window by diffing the current snapshot against the previous one —
/// counters become per-window deltas, histograms become per-window bucket
/// deltas on the registry's one layout (digested with the same quantile
/// convention as whole-run snapshots), gauges are carried as sampled
/// values. Closed windows land
/// in a bounded ring (the flight recorder's black box) and, optionally,
/// as one JSON object per line in a JSONL stream (`--timeline-out`).
///
/// The recorder is a *reader*: it never blocks the wait-free write path —
/// it pays one registry snapshot per window on the sampling thread (the
/// sim-event thread in a Deployment). Counter deltas are exact under
/// concurrent writers in the same way snapshots are; gauge values are the
/// last write at sampling time.

#include <cstdint>
#include <deque>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "sim/time.hpp"
#include "telemetry/registry.hpp"

namespace pran::telemetry {

/// One closed window: deltas/samples between two registry snapshots.
struct WindowSample {
  std::uint64_t index = 0;     ///< 0-based window ordinal.
  sim::Time t_start = 0;       ///< Window open (sim time).
  sim::Time t_end = 0;         ///< Window close (sim time).

  struct CounterDelta {
    std::string name;
    std::uint64_t delta = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  /// Per-window histogram digest computed from the bucket deltas.
  struct HistogramWindow {
    std::string name;
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  /// Sorted by name; counters with a zero delta are omitted.
  std::vector<CounterDelta> counters;
  std::vector<GaugeValue> gauges;
  /// Histograms with zero observations this window are omitted.
  std::vector<HistogramWindow> histograms;

  /// Delta of one counter this window (0 when absent).
  std::uint64_t counter_delta(std::string_view name) const noexcept;
  /// Gauge value at window close; `fallback` when absent.
  double gauge(std::string_view name, double fallback = 0.0) const noexcept;

  /// The JSONL line body (one compact object, no trailing newline).
  json::Value to_json() const;
};

class TimeSeriesRecorder {
 public:
  struct Config {
    /// Nominal sampling cadence; recorded on each window for consumers.
    /// The recorder itself closes a window whenever sample() is called,
    /// so the driver owns the clock (sim-event cadence, test scripts...).
    sim::Time window = 100 * sim::kMillisecond;
    /// Ring capacity: how many closed windows stay resident.
    std::size_t history = 128;
  };

  TimeSeriesRecorder(MetricsRegistry& registry, Config config);

  /// Routes every subsequently closed window to `path` as JSONL (append
  /// per window, flushed per line). Throws when the file cannot be opened.
  void open_jsonl(const std::string& path);

  /// Closes the window [previous sample, now) and returns it. The first
  /// call baselines against the registry state at construction.
  const WindowSample& sample(sim::Time now);

  /// Closed windows, oldest first (bounded by Config::history).
  const std::deque<WindowSample>& windows() const noexcept {
    return windows_;
  }
  std::uint64_t windows_sampled() const noexcept { return next_index_; }
  const Config& config() const noexcept { return config_; }

 private:
  MetricsRegistry& registry_;
  Config config_;
  MetricsSnapshot prev_;
  sim::Time window_start_ = 0;
  std::uint64_t next_index_ = 0;
  std::deque<WindowSample> windows_;
  std::ofstream jsonl_;
};

}  // namespace pran::telemetry
