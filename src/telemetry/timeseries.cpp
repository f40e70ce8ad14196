#include "telemetry/timeseries.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pran::telemetry {

std::uint64_t WindowSample::counter_delta(
    std::string_view name) const noexcept {
  for (const auto& c : counters)
    if (c.name == name) return c.delta;
  return 0;
}

double WindowSample::gauge(std::string_view name,
                           double fallback) const noexcept {
  for (const auto& g : gauges)
    if (g.name == name) return g.value;
  return fallback;
}

json::Value WindowSample::to_json() const {
  json::Value obj = json::Value::object();
  obj.set("window", json::Value(static_cast<double>(index)));
  obj.set("t_start_ms", json::Value(sim::to_seconds(t_start) * 1e3));
  obj.set("t_end_ms", json::Value(sim::to_seconds(t_end) * 1e3));
  json::Value cs = json::Value::object();
  for (const auto& c : counters)
    cs.set(c.name, json::Value(static_cast<double>(c.delta)));
  obj.set("counters", std::move(cs));
  json::Value gs = json::Value::object();
  for (const auto& g : gauges) gs.set(g.name, json::Value(g.value));
  obj.set("gauges", std::move(gs));
  json::Value hs = json::Value::object();
  for (const auto& h : histograms) {
    json::Value digest = json::Value::object();
    digest.set("count", json::Value(static_cast<double>(h.count)));
    digest.set("mean", json::Value(h.mean));
    digest.set("p50", json::Value(h.p50));
    digest.set("p95", json::Value(h.p95));
    digest.set("p99", json::Value(h.p99));
    hs.set(h.name, std::move(digest));
  }
  obj.set("histograms", std::move(hs));
  return obj;
}

TimeSeriesRecorder::TimeSeriesRecorder(MetricsRegistry& registry,
                                       Config config)
    : registry_(registry), config_(config) {
  PRAN_REQUIRE(config_.window > 0, "timeline window must be positive");
  PRAN_REQUIRE(config_.history >= 1, "timeline history must be >= 1");
  prev_ = registry_.snapshot();
}

void TimeSeriesRecorder::open_jsonl(const std::string& path) {
  jsonl_.open(path, std::ios::out | std::ios::trunc);
  PRAN_REQUIRE(jsonl_.is_open(), "cannot open timeline output: " + path);
}

const WindowSample& TimeSeriesRecorder::sample(sim::Time now) {
  MetricsSnapshot cur = registry_.snapshot();

  WindowSample w;
  w.index = next_index_++;
  w.t_start = window_start_;
  w.t_end = now;
  window_start_ = now;

  // Counter deltas: both snapshots are sorted by name and the previous one
  // is a prefix-set of the current (metrics register, never unregister), so
  // one merge walk suffices. Freshly registered counters baseline at 0.
  {
    std::size_t p = 0;
    for (const auto& c : cur.counters) {
      while (p < prev_.counters.size() && prev_.counters[p].name < c.name)
        ++p;
      std::uint64_t before = 0;
      if (p < prev_.counters.size() && prev_.counters[p].name == c.name)
        before = prev_.counters[p].value;
      if (c.value > before)
        w.counters.push_back({c.name, c.value - before});
    }
  }

  for (const auto& g : cur.gauges) w.gauges.push_back({g.name, g.value});

  {
    std::size_t p = 0;
    for (const auto& h : cur.histograms) {
      while (p < prev_.histograms.size() && prev_.histograms[p].name < h.name)
        ++p;
      // Per-window digest from the bucket deltas: reuse the snapshot
      // HistogramValue so windows and whole runs share one quantile.
      MetricsSnapshot::HistogramValue delta = h;
      if (p < prev_.histograms.size() && prev_.histograms[p].name == h.name) {
        const auto& before = prev_.histograms[p];
        for (std::size_t b = 0; b < delta.buckets.size(); ++b)
          delta.buckets[b] -= before.buckets[b];
        delta.underflow -= before.underflow;
        delta.overflow -= before.overflow;
        delta.sum_fixed -= before.sum_fixed;
      }
      const std::uint64_t count = delta.total();
      if (count == 0) continue;
      w.histograms.push_back({h.name, count, delta.mean(),
                              delta.quantile(0.50), delta.quantile(0.95),
                              delta.quantile(0.99)});
    }
  }

  prev_ = std::move(cur);

  if (jsonl_.is_open()) {
    jsonl_ << w.to_json().dump() << '\n';
    jsonl_.flush();
  }

  windows_.push_back(std::move(w));
  while (windows_.size() > config_.history) windows_.pop_front();
  return windows_.back();
}

}  // namespace pran::telemetry
