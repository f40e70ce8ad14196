// Concurrency stress for the telemetry layer (labelled "tsan"): many
// threads hammer one registry and one span collector, and merged results
// must be invariant in the worker-thread count — the same guarantee the
// parallel sweeps rely on when instrumentation is enabled.

#include <gtest/gtest.h>

#include <string>

#include "common/parallel.hpp"
#include "telemetry/family.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace pran::telemetry {
namespace {

constexpr std::size_t kItems = 50'000;

/// Deterministic per-item observation value: a pure function of the item
/// index, so the *multiset* of observations is thread-count independent.
double value_of(std::size_t i) {
  return static_cast<double>((i * 2654435761u) % 1000) / 10.0;
}

std::string run_workload(unsigned threads) {
  MetricsRegistry reg;
  const CounterId c = reg.counter("stress.hits");
  const HistogramId h = reg.histogram("stress.lat");
  const GaugeId g = reg.gauge("stress.last");
  ThreadPool pool(threads);
  pool.for_each(kItems, [&](unsigned, std::size_t i) {
    reg.add(c);
    if (i % 3 == 0) reg.add(c, 2);
    reg.observe(h, value_of(i));
  });
  reg.set(g, 1.0);  // single logical owner: set after the parallel phase
  return reg.snapshot().to_csv();
}

TEST(TelemetryStress, CountersAndHistogramsSurviveContention) {
  MetricsRegistry reg;
  const CounterId c = reg.counter("hits");
  const HistogramId h = reg.histogram("lat");
  ThreadPool pool(8);
  pool.for_each(kItems, [&](unsigned, std::size_t i) {
    reg.add(c);
    reg.observe(h, value_of(i));
  });
  EXPECT_EQ(reg.counter_value(c), kItems);
  EXPECT_EQ(reg.snapshot().histograms[0].total(), kItems);
}

TEST(TelemetryStress, SnapshotIsThreadCountInvariant) {
  const std::string baseline = run_workload(1);
  EXPECT_EQ(run_workload(2), baseline);
  EXPECT_EQ(run_workload(4), baseline);
  EXPECT_EQ(run_workload(8), baseline);
}

TEST(TelemetryStress, ConcurrentRegistrationAndUpdates) {
  MetricsRegistry reg;
  ThreadPool pool(8);
  // All threads race to register a small set of names while updating:
  // registration must be idempotent and the updates must all land.
  pool.for_each(kItems, [&](unsigned, std::size_t i) {
    std::string name = "c";
    name += std::to_string(i % 8);
    const CounterId c = reg.counter(name);
    reg.add(c);
  });
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 8u);
  std::uint64_t total = 0;
  for (const auto& c : snap.counters) total += c.value;
  EXPECT_EQ(total, kItems);
}

/// Labelled-family workload: every item picks a cell from its index (some
/// past max_series so the overflow clamp path races too) and bumps the
/// per-cell counter. The snapshot must be a pure function of the item
/// multiset, independent of thread count.
std::string run_family_workload(unsigned threads) {
  MetricsRegistry reg;
  CounterFamily hits(reg, "stress.cell_hits", "cell", /*max_series=*/8);
  ThreadPool pool(threads);
  pool.for_each(kItems, [&](unsigned, std::size_t i) {
    hits.inc((i * 7) % 12);  // 8 concrete + 4 clamped labels
  });
  return reg.snapshot().to_csv();
}

TEST(TelemetryStress, FamilyWritesSurviveContention) {
  MetricsRegistry reg;
  CounterFamily hits(reg, "stress.cell_hits", "cell", /*max_series=*/8);
  ThreadPool pool(8);
  pool.for_each(kItems, [&](unsigned, std::size_t i) {
    hits.inc((i * 7) % 12);
  });
  std::uint64_t total = 0;
  std::uint64_t overflowed = 0;
  for (const auto& c : reg.snapshot().counters) {
    if (c.name.rfind("stress.cell_hits{", 0) == 0) total += c.value;
    if (c.name == "telemetry.label_overflow") overflowed = c.value;
  }
  EXPECT_EQ(total, kItems);
  // Labels 8..11 hit the clamp series: 4 of every 12 items overflow.
  EXPECT_EQ(overflowed, kItems / 12 * 4 + [] {
    std::uint64_t extra = 0;
    for (std::size_t i = kItems / 12 * 12; i < kItems; ++i)
      if ((i * 7) % 12 >= 8) ++extra;
    return extra;
  }());
}

TEST(TelemetryStress, FamilySnapshotIsThreadCountInvariant) {
  const std::string baseline = run_family_workload(1);
  EXPECT_EQ(run_family_workload(2), baseline);
  EXPECT_EQ(run_family_workload(4), baseline);
  EXPECT_EQ(run_family_workload(8), baseline);
}

TEST(TelemetryStress, SpansUnderContention) {
  // As many spans as one lane's ring holds: one lane could claim every
  // item and still drop none.
  constexpr std::size_t kSpans = SpanCollector::kRingCapacity;
  SpanCollector spans;
  MetricsRegistry reg;
  const auto id = spans.intern("stress.work");
  const HistogramId h = reg.histogram("span_us.stress.work");
  ThreadPool pool(8);
  pool.for_each(kSpans, [&](unsigned, std::size_t) {
    ScopedSpan s(spans, id, reg, h);
  });
  EXPECT_EQ(spans.recorded(), kSpans);
  EXPECT_EQ(spans.dropped(), 0u);
  // Every thread observed into the one shared histogram as its spans
  // ended; none is lost to contention.
  EXPECT_EQ(reg.snapshot().histograms[0].total(), kSpans);
}

}  // namespace
}  // namespace pran::telemetry
