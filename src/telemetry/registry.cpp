#include "telemetry/registry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"
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

/// [first, last) of the occupied buckets; [0, 0) when none is.
std::pair<std::size_t, std::size_t> occupied(
    const std::vector<std::uint64_t>& buckets) {
  std::size_t first = 0;
  while (first < buckets.size() && buckets[first] == 0) ++first;
  if (first == buckets.size()) return {0, 0};
  std::size_t last = buckets.size();
  while (buckets[last - 1] == 0) --last;
  return {first, last};
}

/// Dense buckets from the serialised occupied range.
std::vector<std::uint64_t> dense_buckets(
    std::size_t first, const std::vector<std::uint64_t>& counts) {
  PRAN_REQUIRE(first <= HistogramLayout::kBuckets &&
                   counts.size() <= HistogramLayout::kBuckets - first,
               "histogram bucket range outside the layout");
  std::vector<std::uint64_t> buckets(HistogramLayout::kBuckets, 0);
  std::copy(counts.begin(), counts.end(),
            buckets.begin() + static_cast<std::ptrdiff_t>(first));
  return buckets;
}

}  // namespace

// --------------------------------------------------------------- layout

static_assert(HistogramLayout::kSubBuckets == 1u << 4,
              "the top 4 mantissa bits pick a bucket's sub-bucket");

std::size_t HistogramLayout::slot(double value) noexcept {
  constexpr double kMin = 1.0 / (1 << -kMinExponent);
  constexpr double kMax = static_cast<double>(std::uint64_t{1} << kMaxExponent);
  if (!(value >= 0.0)) return kUnderflow;  // negative or NaN
  if (value < kMin) return 0;
  if (value >= kMax) return kOverflow;
  // The biased exponent and the top 4 mantissa bits, read together: 16
  // linear sub-buckets per power of two, numbered on from 2^kMinExponent.
  constexpr std::uint64_t kFirst =
      static_cast<std::uint64_t>(1023 + kMinExponent) * kSubBuckets;
  return 1 + static_cast<std::size_t>(
                 (std::bit_cast<std::uint64_t>(value) >> 48) - kFirst);
}

double HistogramLayout::lower(std::size_t bucket) noexcept {
  if (bucket == 0) return 0.0;
  const std::size_t k = bucket - 1;
  return std::ldexp(1.0 + static_cast<double>(k % kSubBuckets) /
                              static_cast<double>(kSubBuckets),
                    kMinExponent + static_cast<int>(k / kSubBuckets));
}

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

double MetricsSnapshot::HistogramValue::quantile(double q) const {
  PRAN_REQUIRE(q >= 0.0 && q <= 1.0, "quantile level outside [0, 1]");
  const double top = HistogramLayout::lower(HistogramLayout::kBuckets);
  const std::uint64_t n = total();
  if (n == 0) return 0.0;
  if (q <= 0.0) {
    if (underflow > 0) return 0.0;
    for (std::size_t i = 0; i < buckets.size(); ++i)
      if (buckets[i] > 0) return HistogramLayout::lower(i);
    return top;  // all mass overflowed
  }
  if (q >= 1.0) {
    if (overflow > 0) return top;
    for (std::size_t i = buckets.size(); i-- > 0;)
      if (buckets[i] > 0) return HistogramLayout::upper(i);
    return 0.0;  // all mass underflowed
  }
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  std::uint64_t seen = underflow;
  if (seen >= rank) return 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return HistogramLayout::upper(i);
  }
  return top;  // rank falls in the overflow
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
    const auto [first, last] = occupied(h.buckets);
    os << (i ? ",\n    " : "\n    ") << '"' << json::escape(h.name)
       << "\": {\"underflow\": " << h.underflow
       << ", \"overflow\": " << h.overflow
       << ", \"sum\": " << format_double(h.sum()) << ", \"first\": " << first
       << ", \"buckets\": [";
    for (std::size_t b = first; b < last; ++b)
      os << (b > first ? "," : "") << h.buckets[b];
    os << "]}";
  }
  os << (histograms.empty() ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

MetricsSnapshot MetricsSnapshot::from_json(const std::string& text) {
  const json::Value doc = json::Value::parse(text);
  const auto count = [](const json::Value& v) {
    const double n = v.as_number();
    PRAN_REQUIRE(n >= 0.0 && n <= 0x1p53 && n == std::floor(n),
                 "snapshot JSON count is not a non-negative integer");
    return static_cast<std::uint64_t>(n);
  };
  MetricsSnapshot snap;
  if (const json::Value* counters = doc.find("counters"))
    for (const auto& [name, value] : counters->members())
      snap.counters.push_back({name, count(value)});
  if (const json::Value* gauges = doc.find("gauges"))
    for (const auto& [name, value] : gauges->members())
      snap.gauges.push_back({name, value.as_number()});
  if (const json::Value* histograms = doc.find("histograms")) {
    for (const auto& [name, spec] : histograms->members()) {
      HistogramValue h;
      h.name = name;
      h.underflow = count(spec.at("underflow"));
      h.overflow = count(spec.at("overflow"));
      h.sum_fixed = std::llround(spec.at("sum").as_number() * kSumScale);
      std::vector<std::uint64_t> counts;
      for (const auto& b : spec.at("buckets").items())
        counts.push_back(count(b));
      h.buckets = dense_buckets(count(spec.at("first")), counts);
      snap.histograms.push_back(std::move(h));
    }
  }
  return snap;
}

std::string MetricsSnapshot::to_csv() const {
  std::vector<CsvRow> rows;
  rows.push_back({"kind", "name", "value", "underflow", "overflow", "sum",
                  "first", "buckets"});
  for (const auto& c : counters)
    rows.push_back(
        {"counter", c.name, std::to_string(c.value), "", "", "", "", ""});
  for (const auto& g : gauges)
    rows.push_back(
        {"gauge", g.name, format_double(g.value), "", "", "", "", ""});
  for (const auto& h : histograms) {
    const auto [first, last] = occupied(h.buckets);
    std::vector<std::string> buckets;
    buckets.reserve(last - first);
    for (std::size_t b = first; b < last; ++b)
      buckets.push_back(std::to_string(h.buckets[b]));
    rows.push_back({"histogram", h.name, "", std::to_string(h.underflow),
                    std::to_string(h.overflow), format_double(h.sum()),
                    std::to_string(first), join(buckets, ";")});
  }
  return write_csv(rows);
}

MetricsSnapshot MetricsSnapshot::from_csv(const std::string& text) {
  MetricsSnapshot snap;
  const auto rows = parse_csv(text);
  PRAN_REQUIRE(!rows.empty() && rows[0].size() == 8 && rows[0][0] == "kind",
               "not a metrics-snapshot CSV (expected the 8-column header)");
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    PRAN_REQUIRE(row.size() == 8, "metrics-snapshot CSV row has != 8 cells");
    if (row[0] == "counter") {
      snap.counters.push_back({row[1], std::stoull(row[2])});
    } else if (row[0] == "gauge") {
      snap.gauges.push_back({row[1], std::stod(row[2])});
    } else if (row[0] == "histogram") {
      HistogramValue h;
      h.name = row[1];
      h.underflow = std::stoull(row[3]);
      h.overflow = std::stoull(row[4]);
      h.sum_fixed = std::llround(std::stod(row[5]) * kSumScale);
      std::vector<std::uint64_t> counts;
      for (const auto& cell : split(row[7], ';'))
        if (!cell.empty()) counts.push_back(std::stoull(cell));
      h.buckets = dense_buckets(std::stoull(row[6]), counts);
      snap.histograms.push_back(std::move(h));
    } else {
      PRAN_REQUIRE(false, "unknown metric kind in snapshot CSV: " + row[0]);
    }
  }
  return snap;
}

// ------------------------------------------------------------- registry

MetricsRegistry::Names::Names(std::size_t capacity_, std::size_t reserved_)
    : capacity(capacity_),
      reserved(reserved_),
      names(std::make_unique<std::string[]>(capacity_)) {}

MetricsRegistry::MetricsRegistry()
    : uid_(next_registry_uid()),
      // Counters hold back two slots: their own overflow series and the
      // refused-name counter every kind reports to.
      counters_(kMaxCounters, 2),
      gauges_(kMaxGauges, 1),
      histograms_(kMaxHistograms, 1),
      counter_cells_(
          std::make_unique<std::atomic<std::uint64_t>[]>(kMaxCounters)),
      gauge_cells_(std::make_unique<std::atomic<double>[]>(kMaxGauges)),
      hist_slots_(std::make_unique<std::atomic<std::uint64_t>[]>(
          kMaxHistograms * HistogramLayout::kSlots)),
      hist_sums_(
          std::make_unique<std::atomic<std::int64_t>[]>(kMaxHistograms)) {
  for (std::size_t i = 0; i < kMaxGauges; ++i)
    gauge_cells_[i].store(0.0, std::memory_order_relaxed);
}

std::uint32_t MetricsRegistry::register_locked(Names& kind,
                                               std::string_view name,
                                               bool reserved) {
  const auto it = kind.ids.find(std::string(name));
  if (it != kind.ids.end()) return it->second;
  const std::uint32_t id = kind.count.load(std::memory_order_relaxed);
  if (!reserved && id + kind.reserved >= kind.capacity) {
    // Refused: the name shares the overflow series from now on, so it
    // counts once however often it is asked for.
    const std::uint32_t overflow = register_locked(kind, kOverflowSeries, true);
    kind.ids.emplace(std::string(name), overflow);
    counter_cells_[register_locked(counters_, kRegistryOverflow, true)]
        .fetch_add(1, std::memory_order_relaxed);
    return overflow;
  }
  kind.names[id] = std::string(name);
  kind.ids.emplace(std::string(name), id);
  kind.count.store(id + 1, std::memory_order_release);
  return id;
}

std::uint32_t MetricsRegistry::register_name(Names& kind,
                                             std::string_view name) {
  PRAN_REQUIRE(!name.empty(), "metric name must be non-empty");
  std::lock_guard<std::mutex> lock(mutex_);
  return register_locked(kind, name);
}

CounterId MetricsRegistry::counter(std::string_view name) {
  return CounterId{register_name(counters_, name)};
}

GaugeId MetricsRegistry::gauge(std::string_view name) {
  return GaugeId{register_name(gauges_, name)};
}

HistogramId MetricsRegistry::histogram(std::string_view name) {
  return HistogramId{register_name(histograms_, name)};
}

void MetricsRegistry::add(CounterId id, std::uint64_t n) noexcept {
  counter_cells_[id.index].fetch_add(n, std::memory_order_relaxed);
}

void MetricsRegistry::set(GaugeId id, double value) noexcept {
  gauge_cells_[id.index].store(value, std::memory_order_relaxed);
}

void MetricsRegistry::observe(HistogramId id, double value) noexcept {
  const std::size_t slot = HistogramLayout::slot(value);
  hist_slots_[id.index * HistogramLayout::kSlots + slot].fetch_add(
      1, std::memory_order_relaxed);
  if (slot < HistogramLayout::kBuckets)
    hist_sums_[id.index].fetch_add(std::llround(value * kSumScale),
                                   std::memory_order_relaxed);
}

void MetricsRegistry::merge(const MetricsSnapshot& snapshot) {
  for (const auto& c : snapshot.counters) add(counter(c.name), c.value);
  for (const auto& g : snapshot.gauges) set(gauge(g.name), g.value);
  for (const auto& h : snapshot.histograms) {
    const std::uint32_t id = histogram(h.name).index;
    auto* slots = &hist_slots_[id * HistogramLayout::kSlots];
    const auto add_to = [slots](std::size_t slot, std::uint64_t n) {
      if (n != 0) slots[slot].fetch_add(n, std::memory_order_relaxed);
    };
    for (std::size_t b = 0; b < h.buckets.size(); ++b) add_to(b, h.buckets[b]);
    add_to(HistogramLayout::kUnderflow, h.underflow);
    add_to(HistogramLayout::kOverflow, h.overflow);
    hist_sums_[id].fetch_add(h.sum_fixed, std::memory_order_relaxed);
  }
}

std::uint64_t MetricsRegistry::counter_value(CounterId id) const {
  return counter_cells_[id.index].load(std::memory_order_relaxed);
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.ids.find(std::string(name));
  if (it == counters_.ids.end()) return 0;
  return counter_cells_[it->second].load(std::memory_order_relaxed);
}

double MetricsRegistry::gauge_value(GaugeId id) const {
  return gauge_cells_[id.index].load(std::memory_order_relaxed);
}

std::size_t MetricsRegistry::num_counters() const {
  return counters_.count.load(std::memory_order_acquire);
}

std::size_t MetricsRegistry::num_gauges() const {
  return gauges_.count.load(std::memory_order_acquire);
}

std::size_t MetricsRegistry::num_histograms() const {
  return histograms_.count.load(std::memory_order_acquire);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;

  const std::uint32_t n_counters =
      counters_.count.load(std::memory_order_acquire);
  snap.counters.reserve(n_counters);
  for (std::uint32_t i = 0; i < n_counters; ++i)
    snap.counters.push_back({counters_.names[i], counter_value(CounterId{i})});

  const std::uint32_t n_gauges = gauges_.count.load(std::memory_order_acquire);
  snap.gauges.reserve(n_gauges);
  for (std::uint32_t i = 0; i < n_gauges; ++i)
    snap.gauges.push_back({gauges_.names[i], gauge_value(GaugeId{i})});

  const std::uint32_t n_hists =
      histograms_.count.load(std::memory_order_acquire);
  snap.histograms.reserve(n_hists);
  for (std::uint32_t i = 0; i < n_hists; ++i) {
    const auto* slots = &hist_slots_[i * HistogramLayout::kSlots];
    MetricsSnapshot::HistogramValue h;
    h.name = histograms_.names[i];
    h.buckets.resize(HistogramLayout::kBuckets);
    for (std::size_t b = 0; b < HistogramLayout::kBuckets; ++b)
      h.buckets[b] = slots[b].load(std::memory_order_relaxed);
    h.underflow =
        slots[HistogramLayout::kUnderflow].load(std::memory_order_relaxed);
    h.overflow =
        slots[HistogramLayout::kOverflow].load(std::memory_order_relaxed);
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
