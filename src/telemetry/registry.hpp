#pragma once

/// \file registry.hpp
/// Thread-safe metrics registry: counters, gauges and fixed-bucket
/// histograms with wait-free updates.
///
/// Scope: each `core::Deployment` owns one registry and is its only hot
/// writer, so a metric is one slot of relaxed atomics — an update is a
/// single relaxed `fetch_add` (or store), no locks, no CAS loops. Sweeps
/// that run many deployments fold each one's `snapshot()` into an outer
/// registry with `merge()`; the atomics keep concurrent merges exact.
///
/// Determinism contract (the `--threads` invariance the parallel sweeps
/// guarantee): counter adds and histogram observations are commutative
/// integer sums — histogram value sums are accumulated in fixed-point
/// (microunit) integers precisely so the merged snapshot is a pure
/// function of the *multiset* of observations, independent of which
/// thread recorded each one or in which order runs were merged. Gauges are
/// last-write-wins and should be set from one logical owner (they carry
/// end-of-run KPI values, not hot-path increments).
///
/// Registration (`counter()` / `gauge()` / `histogram()`) takes a mutex
/// and is idempotent per name; do it once at startup or via the per-site
/// caching in the PRAN_COUNTER_* macros. Capacities are compile-time
/// constants so arenas never reallocate under concurrent writers.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pran::telemetry {

/// Fixed-point scale for histogram value sums: 1e6 ticks per unit keeps
/// the merge order-independent (integer adds commute exactly, double adds
/// do not) at a precision of one microunit per observation.
inline constexpr double kSumScale = 1e6;

/// Registry capacities. Sized with labelled-family headroom: a deployment
/// registers up to ~3 counter families x (kDefaultMaxSeries + 1) per-cell
/// series on top of the ~60 scalar metrics (see telemetry/family.hpp on
/// the cardinality budget).
inline constexpr std::size_t kMaxCounters = 512;
inline constexpr std::size_t kMaxGauges = 256;
inline constexpr std::size_t kMaxHistograms = 48;
inline constexpr std::size_t kMaxBins = 64;

struct CounterId {
  std::uint32_t index = 0;
};
struct GaugeId {
  std::uint32_t index = 0;
};
struct HistogramId {
  std::uint32_t index = 0;
};

/// Point-in-time view of a registry; the exportable artifact
/// behind `--metrics-out`. Entries are sorted by name so two snapshots of
/// identical state serialise identically byte for byte.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    double lo = 0.0;
    double hi = 1.0;
    std::vector<std::uint64_t> buckets;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    /// Sum of observed values in microunits (1 / kSumScale), exact.
    std::int64_t sum_fixed = 0;

    double sum() const noexcept {
      return static_cast<double>(sum_fixed) / kSumScale;
    }
    std::uint64_t total() const noexcept;
    double mean() const noexcept;
    /// Approximate quantile from the binned data. Identical to
    /// pran::Histogram::quantile by construction — both delegate to
    /// pran::detail::binned_quantile (upper-edge convention; empty returns
    /// lo; q=0/q=1 snap to the first/last occupied edge).
    double quantile(double q) const;
    double bucket_lo(std::size_t i) const noexcept;
    double bucket_hi(std::size_t i) const noexcept;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// One JSON document: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string to_json() const;
  /// Flat CSV (kind,name,value,lo,hi,underflow,overflow,sum,buckets) that
  /// round-trips through from_csv(); the format pran-report consumes.
  std::string to_csv() const;
  static MetricsSnapshot from_csv(const std::string& text);
};

class MetricsRegistry {
 public:
  MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-unique identity, never reused (not even after this registry
  /// is destroyed): the metric macros key their per-site id caches on it.
  std::uint64_t uid() const noexcept { return uid_; }

  /// Register-or-look-up by name. Re-registering an existing name returns
  /// the same id (histograms must repeat the same bounds).
  CounterId counter(std::string_view name);
  GaugeId gauge(std::string_view name);
  HistogramId histogram(std::string_view name, double lo, double hi,
                        std::size_t bins);

  /// Wait-free: one relaxed fetch_add.
  void add(CounterId id, std::uint64_t n = 1) noexcept;
  /// Last-write-wins store; set from a single logical owner.
  void set(GaugeId id, double value) noexcept;
  /// Wait-free: bucket fetch_add plus a fixed-point sum fetch_add.
  void observe(HistogramId id, double value) noexcept;

  /// Folds a snapshot in: counters and histograms add (same bounds
  /// required), gauges are set. Names not yet present are registered.
  void merge(const MetricsSnapshot& snapshot);

  std::uint64_t counter_value(CounterId id) const;
  /// Value of the counter named `name`, 0 when no such counter exists.
  /// Never registers the name, so reads leave snapshots unchanged.
  std::uint64_t counter_value(std::string_view name) const;
  double gauge_value(GaugeId id) const;

  std::size_t num_counters() const;
  std::size_t num_gauges() const;
  std::size_t num_histograms() const;

  MetricsSnapshot snapshot() const;

 private:
  struct HistogramMeta {
    std::string name;
    double lo = 0.0;
    double hi = 1.0;
    double inv_width = 1.0;
    std::size_t bins = 1;
  };

  /// Slot of bucket `bucket` of histogram `id`; buckets kMaxBins and
  /// kMaxBins + 1 are the underflow and overflow slots.
  static std::size_t hist_cell(std::uint32_t id, std::size_t bucket) noexcept {
    return static_cast<std::size_t>(id) * (kMaxBins + 2) + bucket;
  }

  std::uint64_t uid_;

  mutable std::mutex mutex_;  // guards registration state only
  std::unordered_map<std::string, std::uint32_t> counter_ids_;
  std::unordered_map<std::string, std::uint32_t> gauge_ids_;
  std::unordered_map<std::string, std::uint32_t> histogram_ids_;
  /// Names/meta live in fixed arrays (never reallocated) so readers can
  /// index them lock-free while another thread registers.
  std::unique_ptr<std::string[]> counter_names_;
  std::unique_ptr<std::string[]> gauge_names_;
  std::unique_ptr<HistogramMeta[]> histogram_meta_;
  std::atomic<std::uint32_t> counter_count_{0};
  std::atomic<std::uint32_t> gauge_count_{0};
  std::atomic<std::uint32_t> histogram_count_{0};

  /// Value arenas: one slot per metric (per bucket for histograms).
  std::unique_ptr<std::atomic<std::uint64_t>[]> counter_cells_;
  std::unique_ptr<std::atomic<double>[]> gauge_cells_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> hist_buckets_;
  std::unique_ptr<std::atomic<std::int64_t>[]> hist_sums_;
};

}  // namespace pran::telemetry
