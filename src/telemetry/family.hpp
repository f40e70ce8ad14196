#pragma once

/// \file family.hpp
/// Labelled metric families: a counter or gauge replicated across a
/// small integer-keyed label dimension (`cell=`, `server=`, `rung=`, ...),
/// layered on MetricsRegistry without touching its write path.
///
/// Design: each (family, label value) pair is flattened to an ordinary
/// registry series named `base{key=value}` — e.g.
/// `deployment.cell_misses{cell=3}` — so snapshots, CSV/JSON export,
/// sorting and the thread-count-invariance contract all hold unchanged.
/// The family caches the registered ids in a fixed atomic array indexed by
/// label value: the hot path is one relaxed load plus the registry's own
/// relaxed fetch_add (wait-free after a label's first touch; the first
/// touch registers under the registry mutex, like the per-site id cache
/// of the PRAN_COUNTER_* macros).
///
/// Cardinality budget: a family holds at most `max_series` concrete label
/// values. Writes with label >= max_series fold into one clamp series
/// `base{key=other}` and bump the `telemetry.label_overflow` counter —
/// high-cardinality keys degrade to a visible aggregate instead of
/// exhausting registry capacity (DESIGN §14 discusses the budget).
///
/// Label keys come from a fixed allowlist (`label_key_allowed`); the
/// pran-lint `metric-name` rule rejects ad-hoc keys at review time and the
/// constructor rejects them at run time.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "telemetry/registry.hpp"

namespace pran::telemetry {

/// Default per-family label-cardinality budget.
inline constexpr std::size_t kDefaultMaxSeries = 64;

/// True when `key` is an approved label key (cell, server, rung, slice).
bool label_key_allowed(std::string_view key) noexcept;

/// Flattened registry name for one series: `base{key=value}`.
std::string series_name(std::string_view base, std::string_view key,
                        std::string_view value);

/// A labelled series name split back into its parts.
struct ParsedSeries {
  std::string base;   ///< Family base name.
  std::string key;    ///< Label key.
  std::string value;  ///< Label value ("other" for the clamp series).
};

/// Parses `base{key=value}`; returns false for unlabelled plain names.
bool parse_series_name(std::string_view full, ParsedSeries& out);

namespace detail {

/// Id-cache shared by both family kinds: a fixed array of atomic
/// slots (−1 = unregistered), one per label value plus one clamp slot.
class SeriesIndex {
 public:
  SeriesIndex(std::string base, std::string key, std::size_t max_series);

  const std::string& base() const noexcept { return base_; }
  const std::string& key() const noexcept { return key_; }
  std::size_t max_series() const noexcept { return max_series_; }

  /// Maps a label value to its slot, folding overflow into the clamp slot.
  std::size_t slot_of(std::size_t label) const noexcept {
    return label < max_series_ ? label : max_series_;
  }
  /// Registry name of a slot (the clamp slot renders as value "other").
  std::string name_of_slot(std::size_t slot) const;

  /// Cached id of a slot, or a negative value when not yet registered.
  std::int64_t load(std::size_t slot) const noexcept {
    return ids_[slot].load(std::memory_order_acquire);
  }
  void store(std::size_t slot, std::int64_t id) noexcept {
    ids_[slot].store(id, std::memory_order_release);
  }

 private:
  std::string base_;
  std::string key_;
  std::size_t max_series_;
  std::unique_ptr<std::atomic<std::int64_t>[]> ids_;
};

}  // namespace detail

/// Counter family: `add(label, n)` is wait-free after the label's first
/// touch. Registration failures (registry capacity, bad name) throw on the
/// first touch, so `add` is not noexcept.
class CounterFamily {
 public:
  CounterFamily(MetricsRegistry& registry, std::string_view base,
                std::string_view label_key,
                std::size_t max_series = kDefaultMaxSeries);

  void add(std::size_t label, std::uint64_t n = 1);
  void inc(std::size_t label) { add(label, 1); }

  /// Merged value of one label's series (0 when never touched).
  std::uint64_t value(std::size_t label) const;

  const std::string& base() const noexcept { return index_.base(); }
  const std::string& label_key() const noexcept { return index_.key(); }

 private:
  CounterId id_for(std::size_t slot);

  MetricsRegistry& registry_;
  detail::SeriesIndex index_;
  CounterId overflow_counter_;
};

/// Gauge family: last-write-wins per series; set from one logical owner.
class GaugeFamily {
 public:
  GaugeFamily(MetricsRegistry& registry, std::string_view base,
              std::string_view label_key,
              std::size_t max_series = kDefaultMaxSeries);

  void set(std::size_t label, double value);
  double value(std::size_t label) const;

  const std::string& base() const noexcept { return index_.base(); }
  const std::string& label_key() const noexcept { return index_.key(); }

 private:
  GaugeId id_for(std::size_t slot);

  MetricsRegistry& registry_;
  detail::SeriesIndex index_;
  CounterId overflow_counter_;
};

}  // namespace pran::telemetry
