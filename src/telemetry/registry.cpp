#include "telemetry/registry.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/narrow.hpp"
#include "common/strings.hpp"

namespace pran::telemetry {

namespace {

/// Deterministic shortest-round-trip double formatting for JSON/CSV (the
/// snapshot must serialise identically for identical state).
std::string format_double(double v) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << std::setprecision(17) << v;
  // Prefer the shortest representation that round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    std::ostringstream shorter;
    shorter.imbue(std::locale::classic());
    shorter << std::setprecision(precision) << v;
    if (std::stod(shorter.str()) == v) return shorter.str();
  }
  return os.str();
}

std::uint64_t next_registry_uid() {
  // pran-lint: allow(determinism-hazard) -- registry identity tag used
  // only to invalidate the metric macros' per-site id caches; uids never
  // appear in snapshots.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// ------------------------------------------------------------- snapshot

std::uint64_t MetricsSnapshot::HistogramValue::total() const noexcept {
  std::uint64_t n = underflow + overflow;
  for (std::uint64_t b : buckets) n += b;
  return n;
}

double MetricsSnapshot::HistogramValue::mean() const noexcept {
  const std::uint64_t n = total();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double MetricsSnapshot::HistogramValue::bucket_lo(
    std::size_t i) const noexcept {
  const double width = (hi - lo) / static_cast<double>(buckets.size());
  return lo + static_cast<double>(i) * width;
}

double MetricsSnapshot::HistogramValue::bucket_hi(
    std::size_t i) const noexcept {
  return bucket_lo(i + 1);
}

double MetricsSnapshot::HistogramValue::quantile(double q) const {
  return pran::detail::binned_quantile(
      lo, hi, buckets.size(), [this](std::size_t i) { return buckets[i]; },
      underflow, overflow, q);
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i ? ",\n    " : "\n    ") << '"' << json::escape(counters[i].name)
       << "\": " << counters[i].value;
  }
  os << (counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i ? ",\n    " : "\n    ") << '"' << json::escape(gauges[i].name)
       << "\": " << format_double(gauges[i].value);
  }
  os << (gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    os << (i ? ",\n    " : "\n    ") << '"' << json::escape(h.name)
       << "\": {\"lo\": " << format_double(h.lo)
       << ", \"hi\": " << format_double(h.hi)
       << ", \"underflow\": " << h.underflow
       << ", \"overflow\": " << h.overflow
       << ", \"sum\": " << format_double(h.sum()) << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b)
      os << (b ? "," : "") << h.buckets[b];
    os << "]}";
  }
  os << (histograms.empty() ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

std::string MetricsSnapshot::to_csv() const {
  std::vector<CsvRow> rows;
  rows.push_back({"kind", "name", "value", "lo", "hi", "underflow",
                  "overflow", "sum", "buckets"});
  for (const auto& c : counters)
    rows.push_back(
        {"counter", c.name, std::to_string(c.value), "", "", "", "", "", ""});
  for (const auto& g : gauges)
    rows.push_back(
        {"gauge", g.name, format_double(g.value), "", "", "", "", "", ""});
  for (const auto& h : histograms) {
    std::vector<std::string> buckets;
    buckets.reserve(h.buckets.size());
    for (std::uint64_t b : h.buckets) buckets.push_back(std::to_string(b));
    rows.push_back({"histogram", h.name, "", format_double(h.lo),
                    format_double(h.hi), std::to_string(h.underflow),
                    std::to_string(h.overflow), format_double(h.sum()),
                    join(buckets, ";")});
  }
  return write_csv(rows);
}

MetricsSnapshot MetricsSnapshot::from_csv(const std::string& text) {
  MetricsSnapshot snap;
  const auto rows = parse_csv(text);
  PRAN_REQUIRE(!rows.empty() && rows[0].size() == 9 && rows[0][0] == "kind",
               "not a metrics-snapshot CSV (expected the 9-column header)");
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    PRAN_REQUIRE(row.size() == 9, "metrics-snapshot CSV row has != 9 cells");
    if (row[0] == "counter") {
      snap.counters.push_back({row[1], std::stoull(row[2])});
    } else if (row[0] == "gauge") {
      snap.gauges.push_back({row[1], std::stod(row[2])});
    } else if (row[0] == "histogram") {
      HistogramValue h;
      h.name = row[1];
      h.lo = std::stod(row[3]);
      h.hi = std::stod(row[4]);
      h.underflow = std::stoull(row[5]);
      h.overflow = std::stoull(row[6]);
      h.sum_fixed = std::llround(std::stod(row[7]) * kSumScale);
      for (const auto& cell : split(row[8], ';'))
        if (!cell.empty()) h.buckets.push_back(std::stoull(cell));
      snap.histograms.push_back(std::move(h));
    } else {
      PRAN_REQUIRE(false, "unknown metric kind in snapshot CSV: " + row[0]);
    }
  }
  return snap;
}

// ------------------------------------------------------------- registry

MetricsRegistry::MetricsRegistry()
    : uid_(next_registry_uid()),
      counter_names_(std::make_unique<std::string[]>(kMaxCounters)),
      gauge_names_(std::make_unique<std::string[]>(kMaxGauges)),
      histogram_meta_(std::make_unique<HistogramMeta[]>(kMaxHistograms)),
      counter_cells_(
          std::make_unique<std::atomic<std::uint64_t>[]>(kMaxCounters)),
      gauge_cells_(std::make_unique<std::atomic<double>[]>(kMaxGauges)),
      hist_buckets_(std::make_unique<std::atomic<std::uint64_t>[]>(
          kMaxHistograms * (kMaxBins + 2))),
      hist_sums_(
          std::make_unique<std::atomic<std::int64_t>[]>(kMaxHistograms)) {
  for (std::size_t i = 0; i < kMaxGauges; ++i)
    gauge_cells_[i].store(0.0, std::memory_order_relaxed);
}

CounterId MetricsRegistry::counter(std::string_view name) {
  PRAN_REQUIRE(!name.empty(), "metric name must be non-empty");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counter_ids_.find(std::string(name));
  if (it != counter_ids_.end()) return CounterId{it->second};
  const std::uint32_t id = counter_count_.load(std::memory_order_relaxed);
  PRAN_REQUIRE(id < kMaxCounters,
               "registry counter capacity exhausted; raise kMaxCounters");
  counter_names_[id] = std::string(name);
  counter_ids_.emplace(std::string(name), id);
  counter_count_.store(id + 1, std::memory_order_release);
  return CounterId{id};
}

GaugeId MetricsRegistry::gauge(std::string_view name) {
  PRAN_REQUIRE(!name.empty(), "metric name must be non-empty");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauge_ids_.find(std::string(name));
  if (it != gauge_ids_.end()) return GaugeId{it->second};
  const std::uint32_t id = gauge_count_.load(std::memory_order_relaxed);
  PRAN_REQUIRE(id < kMaxGauges,
               "registry gauge capacity exhausted; raise kMaxGauges");
  gauge_names_[id] = std::string(name);
  gauge_ids_.emplace(std::string(name), id);
  gauge_count_.store(id + 1, std::memory_order_release);
  return GaugeId{id};
}

HistogramId MetricsRegistry::histogram(std::string_view name, double lo,
                                       double hi, std::size_t bins) {
  PRAN_REQUIRE(!name.empty(), "metric name must be non-empty");
  PRAN_REQUIRE(lo < hi, "histogram needs lo < hi");
  PRAN_REQUIRE(bins >= 1 && bins <= kMaxBins,
               "histogram bins outside [1, kMaxBins]");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histogram_ids_.find(std::string(name));
  if (it != histogram_ids_.end()) {
    const HistogramMeta& m = histogram_meta_[it->second];
    PRAN_REQUIRE(m.lo == lo && m.hi == hi && m.bins == bins,
                 "histogram re-registered with different bounds");
    return HistogramId{it->second};
  }
  const std::uint32_t id = histogram_count_.load(std::memory_order_relaxed);
  PRAN_REQUIRE(id < kMaxHistograms,
               "registry histogram capacity exhausted; raise kMaxHistograms");
  HistogramMeta& meta = histogram_meta_[id];
  meta.name = std::string(name);
  meta.lo = lo;
  meta.hi = hi;
  meta.bins = bins;
  meta.inv_width = static_cast<double>(bins) / (hi - lo);
  histogram_ids_.emplace(std::string(name), id);
  histogram_count_.store(id + 1, std::memory_order_release);
  return HistogramId{id};
}

void MetricsRegistry::add(CounterId id, std::uint64_t n) noexcept {
  counter_cells_[id.index].fetch_add(n, std::memory_order_relaxed);
}

void MetricsRegistry::set(GaugeId id, double value) noexcept {
  gauge_cells_[id.index].store(value, std::memory_order_relaxed);
}

void MetricsRegistry::observe(HistogramId id, double value) noexcept {
  const HistogramMeta& m = histogram_meta_[id.index];
  std::size_t bucket;
  if (value < m.lo) {
    bucket = kMaxBins;  // underflow slot
  } else if (value >= m.hi) {
    bucket = kMaxBins + 1;  // overflow slot
  } else {
    bucket = static_cast<std::size_t>((value - m.lo) * m.inv_width);
    if (bucket >= m.bins) bucket = m.bins - 1;  // fp rounding at the edge
  }
  hist_buckets_[hist_cell(id.index, bucket)].fetch_add(
      1, std::memory_order_relaxed);
  hist_sums_[id.index].fetch_add(std::llround(value * kSumScale),
                                 std::memory_order_relaxed);
}

void MetricsRegistry::merge(const MetricsSnapshot& snapshot) {
  for (const auto& c : snapshot.counters) add(counter(c.name), c.value);
  for (const auto& g : snapshot.gauges) set(gauge(g.name), g.value);
  for (const auto& h : snapshot.histograms) {
    const HistogramId id = histogram(h.name, h.lo, h.hi, h.buckets.size());
    const auto add_to = [&](std::size_t bucket, std::uint64_t n) {
      if (n != 0)
        hist_buckets_[hist_cell(id.index, bucket)].fetch_add(
            n, std::memory_order_relaxed);
    };
    for (std::size_t b = 0; b < h.buckets.size(); ++b) add_to(b, h.buckets[b]);
    add_to(kMaxBins, h.underflow);
    add_to(kMaxBins + 1, h.overflow);
    hist_sums_[id.index].fetch_add(h.sum_fixed, std::memory_order_relaxed);
  }
}

std::uint64_t MetricsRegistry::counter_value(CounterId id) const {
  return counter_cells_[id.index].load(std::memory_order_relaxed);
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counter_ids_.find(std::string(name));
  if (it == counter_ids_.end()) return 0;
  return counter_cells_[it->second].load(std::memory_order_relaxed);
}

double MetricsRegistry::gauge_value(GaugeId id) const {
  return gauge_cells_[id.index].load(std::memory_order_relaxed);
}

std::size_t MetricsRegistry::num_counters() const {
  return counter_count_.load(std::memory_order_acquire);
}

std::size_t MetricsRegistry::num_gauges() const {
  return gauge_count_.load(std::memory_order_acquire);
}

std::size_t MetricsRegistry::num_histograms() const {
  return histogram_count_.load(std::memory_order_acquire);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;

  const std::uint32_t n_counters =
      counter_count_.load(std::memory_order_acquire);
  snap.counters.reserve(n_counters);
  for (std::uint32_t i = 0; i < n_counters; ++i)
    snap.counters.push_back(
        {counter_names_[i], counter_cells_[i].load(std::memory_order_relaxed)});

  const std::uint32_t n_gauges = gauge_count_.load(std::memory_order_acquire);
  snap.gauges.reserve(n_gauges);
  for (std::uint32_t i = 0; i < n_gauges; ++i)
    snap.gauges.push_back(
        {gauge_names_[i], gauge_cells_[i].load(std::memory_order_relaxed)});

  const std::uint32_t n_hists =
      histogram_count_.load(std::memory_order_acquire);
  snap.histograms.reserve(n_hists);
  for (std::uint32_t i = 0; i < n_hists; ++i) {
    const HistogramMeta& m = histogram_meta_[i];
    MetricsSnapshot::HistogramValue h;
    h.name = m.name;
    h.lo = m.lo;
    h.hi = m.hi;
    h.buckets.resize(m.bins);
    for (std::size_t b = 0; b < m.bins; ++b)
      h.buckets[b] =
          hist_buckets_[hist_cell(i, b)].load(std::memory_order_relaxed);
    h.underflow =
        hist_buckets_[hist_cell(i, kMaxBins)].load(std::memory_order_relaxed);
    h.overflow = hist_buckets_[hist_cell(i, kMaxBins + 1)].load(
        std::memory_order_relaxed);
    h.sum_fixed = hist_sums_[i].load(std::memory_order_relaxed);
    snap.histograms.push_back(std::move(h));
  }

  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

}  // namespace pran::telemetry
