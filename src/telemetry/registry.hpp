#pragma once

/// \file registry.hpp
/// Thread-safe metrics registry: counters, gauges and histograms with
/// wait-free updates. Every histogram shares one log-linear bucket layout
/// (`HistogramLayout`), a constant of the registry: no call site picks a
/// range.
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
/// constants so arenas never reallocate under concurrent writers, and
/// registration never throws past them: a name that finds its kind full
/// shares that kind's `telemetry.overflow_series` and counts once in the
/// `telemetry.registry_overflow` counter.

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

/// Registry capacities, reserved overflow slots included. Sized with
/// labelled-family headroom: a deployment registers up to ~3 counter
/// families x (kDefaultMaxSeries + 1) per-cell series on top of the ~60
/// scalar metrics (see telemetry/family.hpp on the cardinality budget).
/// src/ has 12 histogram names: 7 span sites and 5 metric sites.
inline constexpr std::size_t kMaxCounters = 512;
inline constexpr std::size_t kMaxGauges = 256;
inline constexpr std::size_t kMaxHistograms = 16;

/// Where writes to a name refused past capacity land (one per kind), and
/// the counter of refused names.
inline constexpr std::string_view kOverflowSeries = "telemetry.overflow_series";
inline constexpr std::string_view kRegistryOverflow =
    "telemetry.registry_overflow";

/// The one bucket layout every histogram uses. Bucket 0 holds [0, 2^-10);
/// each power of two [2^e, 2^(e+1)) for e in [-10, 30) splits into 16
/// equal sub-buckets, picked by the value's binary exponent and its top 4
/// mantissa bits, so a bucket is at most 1/16 of its lower edge wide. In
/// µs that spans 1 ns to 18 min; in ms, 1 µs to 12 days. Negatives and NaN
/// count as underflow, +inf and values from 2^30 as overflow, and neither
/// enters the sum.
struct HistogramLayout {
  static constexpr int kMinExponent = -10;
  static constexpr int kMaxExponent = 30;
  static constexpr std::size_t kSubBuckets = 16;
  static constexpr std::size_t kBuckets =
      1 + static_cast<std::size_t>(kMaxExponent - kMinExponent) * kSubBuckets;
  /// Slots past the buckets.
  static constexpr std::size_t kUnderflow = kBuckets;
  static constexpr std::size_t kOverflow = kBuckets + 1;
  static constexpr std::size_t kSlots = kBuckets + 2;

  /// Slot of `value`: its bucket, kUnderflow or kOverflow.
  static std::size_t slot(double value) noexcept;
  /// Lower edge of bucket `bucket` in [0, kBuckets]; the edge past the
  /// last bucket is 2^30.
  static double lower(std::size_t bucket) noexcept;
  static double upper(std::size_t bucket) noexcept {
    return lower(bucket + 1);
  }
};

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
    /// Dense counts, bucket i of HistogramLayout at index i, so merges
    /// and window deltas are integer arithmetic bucket by bucket.
    std::vector<std::uint64_t> buckets;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    /// Sum of in-range observed values in microunits (1 / kSumScale),
    /// exact.
    std::int64_t sum_fixed = 0;

    double sum() const noexcept {
      return static_cast<double>(sum_fixed) / kSumScale;
    }
    std::uint64_t total() const noexcept;
    double mean() const noexcept;
    /// The upper edge of the bucket holding rank ceil(q * total()), with
    /// underflow ranked below every bucket (edge 0) and overflow above
    /// (edge 2^30). q = 0 and q = 1 snap to the first and last occupied
    /// edge; an empty histogram reads 0. Resolution: within 1/16 above the
    /// exact order statistic for in-range values.
    double quantile(double q) const;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// One JSON document: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// A histogram writes its occupied range only: "first" (the first
  /// occupied bucket) and "buckets" (counts up to the last occupied one).
  std::string to_json() const;
  static MetricsSnapshot from_json(const std::string& text);
  /// Flat CSV (kind,name,value,underflow,overflow,sum,first,buckets) that
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

  /// Register-or-look-up by name; re-registering returns the same id.
  /// Past its kind's capacity a name gets that kind's overflow series.
  CounterId counter(std::string_view name);
  GaugeId gauge(std::string_view name);
  HistogramId histogram(std::string_view name);

  /// Wait-free: one relaxed fetch_add.
  void add(CounterId id, std::uint64_t n = 1) noexcept;
  /// Last-write-wins store; set from a single logical owner.
  void set(GaugeId id, double value) noexcept;
  /// Wait-free: bucket fetch_add plus, in range, a fixed-point sum
  /// fetch_add.
  void observe(HistogramId id, double value) noexcept;

  /// Folds a snapshot in: counters and histograms add, gauges are set.
  /// Names not yet present are registered.
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
  /// One kind's name table. Names live in a fixed array (never
  /// reallocated) so readers can index them lock-free while another
  /// thread registers.
  struct Names {
    Names(std::size_t capacity, std::size_t reserved);

    std::size_t capacity;
    /// Slots held back for the reserved series this kind may need.
    std::size_t reserved;
    std::unordered_map<std::string, std::uint32_t> ids;
    std::unique_ptr<std::string[]> names;
    std::atomic<std::uint32_t> count{0};
  };

  /// Name -> id; the caller holds mutex_. Past capacity the name maps to
  /// the kind's overflow series and bumps the refused-name counter; a
  /// `reserved` name may use the held-back slots.
  std::uint32_t register_locked(Names& kind, std::string_view name,
                                bool reserved = false);
  std::uint32_t register_name(Names& kind, std::string_view name);

  std::uint64_t uid_;

  mutable std::mutex mutex_;  // guards registration state only
  Names counters_;
  Names gauges_;
  Names histograms_;

  /// Value arenas: one slot per metric (per layout slot for histograms).
  std::unique_ptr<std::atomic<std::uint64_t>[]> counter_cells_;
  std::unique_ptr<std::atomic<double>[]> gauge_cells_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> hist_slots_;
  std::unique_ptr<std::atomic<std::int64_t>[]> hist_sums_;
};

}  // namespace pran::telemetry
