// Tests for the telemetry subsystem: registry semantics (bucket edges,
// concurrent adds, snapshot merges, snapshot determinism, CSV round-trip),
// span recording (nesting, ring overwrite, Chrome export, aggregation) and
// the instrumentation macros.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace pran::telemetry {
namespace {

// ----------------------------------------------------------------- registry

TEST(MetricsRegistry, CounterRegisterAddRead) {
  MetricsRegistry reg;
  const CounterId a = reg.counter("a");
  const CounterId again = reg.counter("a");
  EXPECT_EQ(a.index, again.index);
  reg.add(a);
  reg.add(a, 41);
  EXPECT_EQ(reg.counter_value(a), 42u);
  EXPECT_EQ(reg.num_counters(), 1u);
}

TEST(MetricsRegistry, GaugeLastWriteWins) {
  MetricsRegistry reg;
  const GaugeId g = reg.gauge("g");
  reg.set(g, 1.5);
  reg.set(g, -2.25);
  EXPECT_DOUBLE_EQ(reg.gauge_value(g), -2.25);
}

TEST(MetricsRegistry, HistogramBucketEdges) {
  MetricsRegistry reg;
  const HistogramId h = reg.histogram("h", 0.0, 10.0, 10);
  reg.observe(h, -0.001);  // underflow
  reg.observe(h, 0.0);     // bucket 0 (lo is inclusive)
  reg.observe(h, 0.999);   // bucket 0
  reg.observe(h, 1.0);     // bucket 1
  reg.observe(h, 9.999);   // bucket 9
  reg.observe(h, 10.0);    // overflow (hi is exclusive)
  reg.observe(h, 1e9);     // overflow

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& hv = snap.histograms[0];
  EXPECT_EQ(hv.underflow, 1u);
  EXPECT_EQ(hv.overflow, 2u);
  ASSERT_EQ(hv.buckets.size(), 10u);
  EXPECT_EQ(hv.buckets[0], 2u);
  EXPECT_EQ(hv.buckets[1], 1u);
  EXPECT_EQ(hv.buckets[9], 1u);
  EXPECT_EQ(hv.total(), 7u);
  EXPECT_DOUBLE_EQ(hv.bucket_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(hv.bucket_hi(3), 4.0);
}

TEST(MetricsRegistry, HistogramRequiresMatchingBounds) {
  MetricsRegistry reg;
  (void)reg.histogram("h", 0.0, 10.0, 10);
  EXPECT_NO_THROW((void)reg.histogram("h", 0.0, 10.0, 10));
  EXPECT_ANY_THROW((void)reg.histogram("h", 0.0, 20.0, 10));
}

TEST(MetricsRegistry, FixedPointSumIsExact) {
  MetricsRegistry reg;
  const HistogramId h = reg.histogram("h", 0.0, 1.0, 4);
  for (int i = 0; i < 3; ++i) reg.observe(h, 0.5);
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.histograms[0].sum(), 1.5);
  EXPECT_DOUBLE_EQ(snap.histograms[0].mean(), 0.5);
}

TEST(MetricsRegistry, QuantileUpperEdgeConvention) {
  MetricsRegistry reg;
  const HistogramId h = reg.histogram("h", 0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) reg.observe(h, 0.5);  // all in bucket 0
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(1.0), 1.0);
}

TEST(MetricsRegistry, ShardMergeSumsAcrossThreads) {
  MetricsRegistry reg;
  const CounterId c = reg.counter("hits");
  const HistogramId h = reg.histogram("lat", 0.0, 100.0, 10);
  constexpr std::size_t kItems = 10'000;
  ThreadPool pool(4);
  pool.for_each(kItems, [&](unsigned, std::size_t i) {
    reg.add(c);
    reg.observe(h, static_cast<double>(i % 100));
  });
  EXPECT_EQ(reg.counter_value(c), kItems);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.histograms[0].total(), kItems);
}

TEST(MetricsRegistry, MergeIsExact) {
  MetricsRegistry a;
  a.add(a.counter("c.hits"), 7);
  a.set(a.gauge("g.level"), 1.5);
  const HistogramId ha = a.histogram("h.lat", 0.0, 10.0, 5);
  a.observe(ha, -1.0);  // underflow
  a.observe(ha, 3.0);   // bucket 1
  a.observe(ha, 99.0);  // overflow
  MetricsSnapshot from_a = a.snapshot();
  // A sum near 2^50 microunits: one more microunit must survive the merge.
  from_a.histograms[0].sum_fixed += std::int64_t{1} << 50;

  MetricsRegistry merged;
  merged.add(merged.counter("c.hits"), 5);
  merged.set(merged.gauge("g.level"), 9.0);
  const HistogramId hm = merged.histogram("h.lat", 0.0, 10.0, 5);
  merged.observe(hm, 3.5);      // bucket 1
  merged.observe(hm, 0.000001);  // bucket 0, one microunit
  merged.merge(from_a);

  const auto snap = merged.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 12u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 1.5);  // set, not added
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& h = snap.histograms[0];
  EXPECT_EQ(h.buckets, (std::vector<std::uint64_t>{1, 2, 0, 0, 0}));
  EXPECT_EQ(h.underflow, 1u);
  EXPECT_EQ(h.overflow, 1u);
  EXPECT_EQ(h.sum_fixed, (std::int64_t{1} << 50) + 3'500'000 + 1 -
                             1'000'000 + 3'000'000 + 99'000'000);
}

TEST(MetricsRegistry, MergeOrderDoesNotChangeCountersOrHistograms) {
  auto fill = [](MetricsRegistry& reg, int salt) {
    reg.add(reg.counter("c.shared"), 3 + static_cast<std::uint64_t>(salt));
    reg.add(reg.counter(salt ? "c.only_b" : "c.only_a"), 1);
    const HistogramId h = reg.histogram("h.lat", 0.0, 1.0, 8);
    for (int i = 0; i < 50; ++i) reg.observe(h, 0.0173 * (i + salt));
  };
  MetricsRegistry a, b;
  fill(a, 0);
  fill(b, 1);
  MetricsRegistry ab, ba;
  ab.merge(a.snapshot());
  ab.merge(b.snapshot());
  ba.merge(b.snapshot());
  ba.merge(a.snapshot());
  EXPECT_EQ(ab.snapshot().to_csv(), ba.snapshot().to_csv());
  EXPECT_EQ(ab.counter_value("c.shared"), 7u);
}

TEST(MetricsRegistry, CounterLookupByNameNeverRegisters) {
  MetricsRegistry reg;
  reg.add(reg.counter("c.present"), 4);
  EXPECT_EQ(reg.counter_value("c.present"), 4u);
  EXPECT_EQ(reg.counter_value("c.absent"), 0u);
  EXPECT_EQ(reg.num_counters(), 1u);
  EXPECT_EQ(reg.snapshot().counters.size(), 1u);
}

TEST(MetricsRegistry, UidIsUniquePerRegistry) {
  MetricsRegistry a, b;
  EXPECT_NE(a.uid(), b.uid());
  EXPECT_NE(a.uid(), 0u);
}

TEST(MetricsRegistry, SnapshotSortedByNameAndDeterministic) {
  auto fill = [](MetricsRegistry& reg) {
    reg.add(reg.counter("zebra"), 3);
    reg.add(reg.counter("alpha"), 1);
    reg.set(reg.gauge("mid"), 0.25);
    reg.observe(reg.histogram("hist", 0.0, 1.0, 2), 0.75);
  };
  MetricsRegistry a, b;
  fill(a);
  fill(b);
  const auto sa = a.snapshot();
  EXPECT_EQ(sa.counters[0].name, "alpha");
  EXPECT_EQ(sa.counters[1].name, "zebra");
  EXPECT_EQ(sa.to_json(), b.snapshot().to_json());
  EXPECT_EQ(sa.to_csv(), b.snapshot().to_csv());
}

TEST(MetricsSnapshot, CsvRoundTrips) {
  MetricsRegistry reg;
  reg.add(reg.counter("c"), 7);
  reg.set(reg.gauge("g"), 3.14159);
  const HistogramId h = reg.histogram("h", 0.5, 2.5, 4);
  reg.observe(h, 0.4);
  reg.observe(h, 1.0);
  reg.observe(h, 99.0);
  const auto snap = reg.snapshot();
  const std::string csv = snap.to_csv();
  const auto back = MetricsSnapshot::from_csv(csv);
  EXPECT_EQ(back.to_csv(), csv);
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms[0].underflow, 1u);
  EXPECT_EQ(back.histograms[0].overflow, 1u);
  EXPECT_DOUBLE_EQ(back.histograms[0].lo, 0.5);
}

// -------------------------------------------------------------------- spans

TEST(SpanCollector, InternIsIdempotent) {
  SpanCollector spans;
  const auto id = spans.intern("stage");
  EXPECT_EQ(spans.intern("stage"), id);
  EXPECT_EQ(spans.name(id), "stage");
}

TEST(SpanCollector, ScopedSpanRecordsNesting) {
  SpanCollector spans;
  const auto outer = spans.intern("outer");
  const auto inner = spans.intern("inner");
  {
    ScopedSpan a(spans, outer);
    ScopedSpan b(spans, inner, /*arg0=*/7);
  }
  const auto records = spans.records();
  ASSERT_EQ(records.size(), 2u);
  // Inner finishes (and records) first; outer's interval contains it.
  EXPECT_EQ(records[0].name_id, inner);
  EXPECT_EQ(records[0].arg0, 7);
  EXPECT_EQ(records[1].name_id, outer);
  EXPECT_EQ(records[1].arg0, kNoArg);
  EXPECT_LE(records[1].start_ns, records[0].start_ns);
  EXPECT_GE(records[1].start_ns + records[1].duration_ns,
            records[0].start_ns + records[0].duration_ns);
}

TEST(SpanCollector, RecordIsFourWords) {
  static_assert(sizeof(SpanRecord) == 32, "a span record is 32 bytes");
  SUCCEED();
}

/// Records one span of `duration_ns` starting `start_ns` after the
/// collector's epoch, as ScopedSpan would with those clock readings.
void record_span(SpanCollector& spans, std::uint32_t id, std::int64_t start_ns,
                 std::int64_t duration_ns, std::int64_t arg0 = kNoArg) {
  const std::int64_t begin = spans.epoch_ns() + start_ns;
  spans.end_span(spans.begin_span(), id, begin, begin + duration_ns, arg0);
}

TEST(SpanCollector, RingOverwritesOldestAndCountsDrops) {
  SpanCollector::Config config;
  config.ring_capacity = 4;
  SpanCollector spans(config);
  const auto id = spans.intern("s");
  for (int i = 0; i < 10; ++i)
    record_span(spans, id, /*start_ns=*/i, /*duration_ns=*/1);
  EXPECT_EQ(spans.recorded(), 10u);
  EXPECT_EQ(spans.dropped(), 6u);
  const auto records = spans.records();
  ASSERT_EQ(records.size(), 4u);
  // The tail survives, oldest-first.
  EXPECT_EQ(records[0].start_ns, 6);
  EXPECT_EQ(records[3].start_ns, 9);
}

TEST(SpanCollector, ChromeTraceExportsWallEventsOnly) {
  SpanCollector spans;
  const auto wall = spans.intern("turbo_decode");
  const auto replan = spans.intern("controller_replan");
  {
    ScopedSpan s(spans, wall);
  }
  record_span(spans, replan, /*start_ns=*/1'000'000, /*duration_ns=*/500,
              /*arg0=*/42);
  const std::string json = spans.to_chrome_trace();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("turbo_decode"), std::string::npos);
  EXPECT_NE(json.find("controller_replan"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("wall-clock"), std::string::npos);
  EXPECT_EQ(json.find("simulated"), std::string::npos);  // no sim process
  EXPECT_EQ(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos);
  EXPECT_NE(json.find("\"arg0\":42"), std::string::npos);
}

TEST(SpanCollector, AggregateIntoFoldsDurations) {
  SpanCollector spans;
  const auto id = spans.intern("stage");
  // 3 spans of 2 µs each.
  for (int i = 0; i < 3; ++i) record_span(spans, id, i * 10, 2'000);
  MetricsRegistry reg;
  spans.aggregate_into(reg);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "span_us.stage");
  EXPECT_EQ(snap.histograms[0].total(), 3u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].sum(), 6.0);
}

TEST(SpanCollector, ParallelRecordingKeepsEverySpan) {
  SpanCollector spans;
  const auto id = spans.intern("work");
  constexpr std::size_t kItems = 2'000;
  ThreadPool pool(4);
  pool.for_each(kItems, [&](unsigned, std::size_t) {
    ScopedSpan s(spans, id);
  });
  EXPECT_EQ(spans.recorded(), kItems);
  EXPECT_EQ(spans.dropped(), 0u);
  EXPECT_GE(spans.lanes_in_use(), 1u);
}

// ------------------------------------------------------------ global facade

TEST(TelemetryGlobals, MacrosRecordIntoGlobalState) {
  reset_for_testing();
  {
    PRAN_SPAN("global_stage");
    PRAN_COUNTER_INC(registry(), "global_counter");
    PRAN_COUNTER_ADD(registry(), "global_counter", 4);
    PRAN_GAUGE_SET(registry(), "global_gauge", 2.5);
    PRAN_HIST_OBSERVE(registry(), "global_hist", 0.0, 10.0, 10, 3.0);
  }
  // The metric macros stay compiled in at PRAN_TELEMETRY=OFF.
  EXPECT_EQ(registry().counter_value("global_counter"), 5u);
  EXPECT_DOUBLE_EQ(registry().gauge_value(registry().gauge("global_gauge")),
                   2.5);
  if (!enabled()) GTEST_SKIP() << "span macros compiled out";
  EXPECT_EQ(spans().recorded(), 1u);
  reset_for_testing();
  EXPECT_EQ(registry().num_counters(), 0u);
  EXPECT_EQ(spans().recorded(), 0u);
}

/// One macro call site, counting into whichever registry it is handed.
void count_first(MetricsRegistry& reg) { PRAN_COUNTER_INC(reg, "t.first"); }

TEST(TelemetryMacros, OneSiteCountsUnderItsOwnNameInEachRegistry) {
  MetricsRegistry a, b;
  b.add(b.counter("t.other"), 0);  // "t.first" gets a different id in b
  for (int i = 0; i < 3; ++i) {
    count_first(a);
    count_first(b);
  }
  EXPECT_EQ(a.counter_value("t.first"), 3u);
  EXPECT_EQ(b.counter_value("t.first"), 3u);
  EXPECT_EQ(b.counter_value("t.other"), 0u);

  // Across a reset the site re-registers instead of writing whichever
  // name now holds its old slot.
  reset_for_testing();
  count_first(registry());
  reset_for_testing();
  (void)registry().counter("t.other");
  count_first(registry());
  EXPECT_EQ(registry().counter_value("t.first"), 1u);
  EXPECT_EQ(registry().counter_value("t.other"), 0u);
  reset_for_testing();
}

}  // namespace
}  // namespace pran::telemetry
