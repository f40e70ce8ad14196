#include "telemetry/family.hpp"

#include <array>

#include "common/check.hpp"

namespace pran::telemetry {

namespace {

constexpr std::array<std::string_view, 4> kAllowedLabelKeys = {
    "cell", "server", "rung", "slice"};

/// Clamp-series label value for writes past the cardinality budget.
constexpr std::string_view kOverflowValue = "other";

constexpr std::string_view kOverflowCounterName = "telemetry.label_overflow";

}  // namespace

bool label_key_allowed(std::string_view key) noexcept {
  for (std::string_view allowed : kAllowedLabelKeys)
    if (key == allowed) return true;
  return false;
}

std::string series_name(std::string_view base, std::string_view key,
                        std::string_view value) {
  std::string out;
  out.reserve(base.size() + key.size() + value.size() + 3);
  out.append(base);
  out += '{';
  out.append(key);
  out += '=';
  out.append(value);
  out += '}';
  return out;
}

bool parse_series_name(std::string_view full, ParsedSeries& out) {
  if (full.empty() || full.back() != '}') return false;
  const std::size_t brace = full.find('{');
  if (brace == std::string_view::npos || brace == 0) return false;
  const std::string_view inner =
      full.substr(brace + 1, full.size() - brace - 2);
  const std::size_t eq = inner.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 >= inner.size())
    return false;
  out.base = std::string(full.substr(0, brace));
  out.key = std::string(inner.substr(0, eq));
  out.value = std::string(inner.substr(eq + 1));
  return true;
}

namespace detail {

SeriesIndex::SeriesIndex(std::string base, std::string key,
                         std::size_t max_series)
    : base_(std::move(base)), key_(std::move(key)), max_series_(max_series) {
  PRAN_REQUIRE(!base_.empty(), "metric family needs a base name");
  PRAN_REQUIRE(base_.find('{') == std::string::npos,
               "metric family base name must not contain '{'");
  PRAN_REQUIRE(label_key_allowed(key_),
               "label key '" + key_ +
                   "' is not in the allowlist (cell/server/rung/slice)");
  PRAN_REQUIRE(max_series_ >= 1, "metric family needs max_series >= 1");
  // One extra slot for the clamp series.
  ids_ = std::make_unique<std::atomic<std::int64_t>[]>(max_series_ + 1);
  for (std::size_t i = 0; i <= max_series_; ++i)
    ids_[i].store(-1, std::memory_order_relaxed);
}

std::string SeriesIndex::name_of_slot(std::size_t slot) const {
  return series_name(base_, key_,
                     slot < max_series_ ? std::to_string(slot)
                                        : std::string(kOverflowValue));
}

}  // namespace detail

// -------------------------------------------------------- CounterFamily

CounterFamily::CounterFamily(MetricsRegistry& registry, std::string_view base,
                             std::string_view label_key,
                             std::size_t max_series)
    : registry_(registry),
      index_(std::string(base), std::string(label_key), max_series),
      overflow_counter_(registry.counter(kOverflowCounterName)) {}

CounterId CounterFamily::id_for(std::size_t slot) {
  const std::int64_t cached = index_.load(slot);
  if (cached >= 0) return CounterId{static_cast<std::uint32_t>(cached)};
  // First touch: register under the registry mutex. Racing threads all
  // resolve to the same id (registration is idempotent per name).
  const CounterId id = registry_.counter(index_.name_of_slot(slot));
  index_.store(slot, static_cast<std::int64_t>(id.index));
  return id;
}

void CounterFamily::add(std::size_t label, std::uint64_t n) {
  const std::size_t slot = index_.slot_of(label);
  if (slot == index_.max_series())
    registry_.add(overflow_counter_);  // budget exceeded; fold into clamp
  registry_.add(id_for(slot), n);
}

std::uint64_t CounterFamily::value(std::size_t label) const {
  const std::int64_t cached = index_.load(index_.slot_of(label));
  if (cached < 0) return 0;
  return registry_.counter_value(CounterId{static_cast<std::uint32_t>(cached)});
}

// ---------------------------------------------------------- GaugeFamily

GaugeFamily::GaugeFamily(MetricsRegistry& registry, std::string_view base,
                         std::string_view label_key, std::size_t max_series)
    : registry_(registry),
      index_(std::string(base), std::string(label_key), max_series),
      overflow_counter_(registry.counter(kOverflowCounterName)) {}

GaugeId GaugeFamily::id_for(std::size_t slot) {
  const std::int64_t cached = index_.load(slot);
  if (cached >= 0) return GaugeId{static_cast<std::uint32_t>(cached)};
  const GaugeId id = registry_.gauge(index_.name_of_slot(slot));
  index_.store(slot, static_cast<std::int64_t>(id.index));
  return id;
}

void GaugeFamily::set(std::size_t label, double value) {
  const std::size_t slot = index_.slot_of(label);
  if (slot == index_.max_series()) registry_.add(overflow_counter_);
  registry_.set(id_for(slot), value);
}

double GaugeFamily::value(std::size_t label) const {
  const std::int64_t cached = index_.load(index_.slot_of(label));
  if (cached < 0) return 0.0;
  return registry_.gauge_value(GaugeId{static_cast<std::uint32_t>(cached)});
}

}  // namespace pran::telemetry
