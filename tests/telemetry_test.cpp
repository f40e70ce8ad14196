// Tests for the telemetry subsystem: the one histogram layout, registry
// semantics (quantiles, concurrent adds, snapshot merges, capacity
// overflow, snapshot determinism, CSV and JSON round-trips), span
// recording (nesting, ring overwrite, Chrome export, record-time
// histograms) and the instrumentation macros.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
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

// ------------------------------------------------------------------ layout

TEST(HistogramLayout, SeededLogUniformSweepLandsInsideItsBucket) {
  Rng rng(2021);
  MetricsRegistry reg;
  const HistogramId h = reg.histogram("sweep");
  std::vector<std::uint64_t> expected(HistogramLayout::kBuckets, 0);
  for (int i = 0; i < 20'000; ++i) {
    const double v = std::exp2(rng.uniform(HistogramLayout::kMinExponent,
                                           HistogramLayout::kMaxExponent));
    if (v >= std::exp2(HistogramLayout::kMaxExponent)) continue;
    const std::size_t b = HistogramLayout::slot(v);
    ASSERT_GE(b, 1u) << v;
    ASSERT_LT(b, HistogramLayout::kBuckets) << v;
    const double lo = HistogramLayout::lower(b);
    const double hi = HistogramLayout::upper(b);
    EXPECT_LE(lo, v);
    EXPECT_LT(v, hi);
    EXPECT_LE(hi, lo * 17.0 / 16.0);
    reg.observe(h, v);
    ++expected[b];
  }
  // observe() files each value where the layout says.
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.histograms[0].buckets, expected);
  EXPECT_EQ(snap.histograms[0].underflow + snap.histograms[0].overflow, 0u);
}

TEST(HistogramLayout, EdgeValuesLandWhereTheLayoutSays) {
  using L = HistogramLayout;
  EXPECT_EQ(L::kBuckets, 641u);
  EXPECT_EQ(L::slot(0.0), 0u);
  EXPECT_DOUBLE_EQ(L::lower(0), 0.0);
  EXPECT_DOUBLE_EQ(L::upper(0), std::exp2(-10));
  for (int e = L::kMinExponent; e < L::kMaxExponent; ++e) {
    const double p = std::exp2(e);
    const std::size_t first = 1 + static_cast<std::size_t>(e + 10) * 16;
    EXPECT_EQ(L::slot(p), first) << "2^" << e;
    EXPECT_EQ(L::lower(first), p);
    // The double just below 2^e closes the previous bucket.
    const double below = std::nextafter(p, 0.0);
    EXPECT_EQ(L::slot(below), first - 1) << "below 2^" << e;
    EXPECT_EQ(L::upper(first - 1), p);
  }
  EXPECT_EQ(L::slot(std::exp2(30)), L::kOverflow);
  EXPECT_EQ(L::slot(std::nextafter(std::exp2(30), 0.0)), L::kBuckets - 1);
  EXPECT_EQ(L::upper(L::kBuckets - 1), std::exp2(30));
  EXPECT_EQ(L::slot(-1.0), L::kUnderflow);
  EXPECT_EQ(L::slot(std::numeric_limits<double>::quiet_NaN()), L::kUnderflow);
  EXPECT_EQ(L::slot(std::numeric_limits<double>::infinity()), L::kOverflow);
}

TEST(MetricsRegistry, HistogramBucketEdges) {
  MetricsRegistry reg;
  const HistogramId h = reg.histogram("h");
  reg.observe(h, -1.0);  // underflow
  reg.observe(h, std::numeric_limits<double>::quiet_NaN());  // underflow
  reg.observe(h, 0.0);      // bucket 0
  reg.observe(h, 2.0);      // [2, 2.125): the lower edge is inclusive
  reg.observe(h, 2.124);    // [2, 2.125)
  reg.observe(h, 2.125);    // [2.125, 2.25): the upper edge is exclusive
  reg.observe(h, std::exp2(30));  // overflow (2^30 is exclusive)
  reg.observe(h, std::numeric_limits<double>::infinity());  // overflow

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& hv = snap.histograms[0];
  EXPECT_EQ(hv.underflow, 2u);
  EXPECT_EQ(hv.overflow, 2u);
  ASSERT_EQ(hv.buckets.size(), HistogramLayout::kBuckets);
  const std::size_t two = HistogramLayout::slot(2.0);
  EXPECT_EQ(hv.buckets[0], 1u);
  EXPECT_EQ(hv.buckets[two], 2u);
  EXPECT_EQ(hv.buckets[two + 1], 1u);
  EXPECT_EQ(hv.total(), 8u);
  EXPECT_DOUBLE_EQ(HistogramLayout::lower(two), 2.0);
  EXPECT_DOUBLE_EQ(HistogramLayout::upper(two), 2.125);
  // Under- and overflow stay out of the fixed-point sum.
  EXPECT_EQ(hv.sum_fixed, 2'000'000 + 2'124'000 + 2'125'000);
}

TEST(MetricsRegistry, FixedPointSumIsExact) {
  MetricsRegistry reg;
  const HistogramId h = reg.histogram("h");
  for (int i = 0; i < 3; ++i) reg.observe(h, 0.5);
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.histograms[0].sum(), 1.5);
  EXPECT_DOUBLE_EQ(snap.histograms[0].mean(), 0.5);
}

TEST(MetricsRegistry, QuantileUpperEdgeConvention) {
  MetricsRegistry reg;
  const HistogramId h = reg.histogram("h");
  EXPECT_DOUBLE_EQ(reg.snapshot().histograms[0].quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 10; ++i) reg.observe(h, 0.5);  // bucket [0.5, 0.53125)
  reg.observe(h, 3.0);                               // bucket [3, 3.125)
  auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(0.5), 0.53125);
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(10.0 / 11.0), 0.53125);
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(0.95), 3.125);
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(1.0), 3.125);
  EXPECT_THROW((void)snap.histograms[0].quantile(1.5), ContractViolation);

  // Underflow ranks below every bucket (edge 0), overflow above (2^30).
  reg.observe(h, -1.0);
  for (int i = 0; i < 2; ++i) reg.observe(h, 1e12);
  snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(1.0 / 14.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(0.99), std::exp2(30));
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(1.0), std::exp2(30));

  MetricsRegistry all_over;
  all_over.observe(all_over.histogram("h"), 1e12);
  snap = all_over.snapshot();
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(0.0), std::exp2(30));
  EXPECT_DOUBLE_EQ(snap.histograms[0].quantile(0.5), std::exp2(30));
}

TEST(MetricsRegistry, ShardMergeSumsAcrossThreads) {
  MetricsRegistry reg;
  const CounterId c = reg.counter("hits");
  const HistogramId h = reg.histogram("lat");
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
  const HistogramId ha = a.histogram("h.lat");
  a.observe(ha, -1.0);  // underflow
  a.observe(ha, 3.0);
  a.observe(ha, 2e9);  // overflow
  MetricsSnapshot from_a = a.snapshot();
  // A sum near 2^50 microunits: one more microunit must survive the merge.
  from_a.histograms[0].sum_fixed += std::int64_t{1} << 50;

  MetricsRegistry merged;
  merged.add(merged.counter("c.hits"), 5);
  merged.set(merged.gauge("g.level"), 9.0);
  const HistogramId hm = merged.histogram("h.lat");
  merged.observe(hm, 3.0);
  merged.observe(hm, 3.5);
  merged.observe(hm, 0.000001);  // bucket 0, one microunit
  merged.merge(from_a);

  const auto snap = merged.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 12u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 1.5);  // set, not added
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& h = snap.histograms[0];
  std::vector<std::uint64_t> expected(HistogramLayout::kBuckets, 0);
  expected[0] = 1;
  expected[HistogramLayout::slot(3.0)] = 2;
  expected[HistogramLayout::slot(3.5)] = 1;
  EXPECT_EQ(h.buckets, expected);
  EXPECT_EQ(h.underflow, 1u);
  EXPECT_EQ(h.overflow, 1u);
  EXPECT_EQ(h.sum_fixed,
            (std::int64_t{1} << 50) + 3'000'000 + 3'500'000 + 1 + 3'000'000);
}

TEST(MetricsRegistry, MergeOrderDoesNotChangeCountersOrHistograms) {
  auto fill = [](MetricsRegistry& reg, int salt) {
    reg.add(reg.counter("c.shared"), 3 + static_cast<std::uint64_t>(salt));
    reg.add(reg.counter(salt ? "c.only_b" : "c.only_a"), 1);
    const HistogramId h = reg.histogram("h.lat");
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
    reg.observe(reg.histogram("hist"), 0.75);
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

/// Name `prefix` + `i`, built with append: GCC 12 raises a false
/// -Wrestrict on `"x" + std::to_string(i)` in optimised builds.
std::string numbered(const char* prefix, std::size_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

TEST(MetricsRegistry, PastCapacityEveryKindSharesItsOverflowSeries) {
  MetricsRegistry reg;
  constexpr std::size_t kExtra = 3;
  std::size_t refused_counters = 0;
  std::size_t refused_gauges = 0;
  std::size_t refused_histograms = 0;
  for (std::size_t i = 0; i < kMaxCounters + kExtra; ++i) {
    CounterId id;
    ASSERT_NO_THROW(id = reg.counter(numbered("c.n", i)));
    reg.add(id);
  }
  for (std::size_t i = 0; i < kMaxGauges + kExtra; ++i) {
    GaugeId id;
    ASSERT_NO_THROW(id = reg.gauge(numbered("g.n", i)));
    reg.set(id, static_cast<double>(i));
  }
  for (std::size_t i = 0; i < kMaxHistograms + kExtra; ++i) {
    HistogramId id;
    ASSERT_NO_THROW(id = reg.histogram(numbered("h.n", i)));
    reg.observe(id, 1.0);
  }
  // A name that was refused maps to its kind's overflow series.
  const std::string overflow(kOverflowSeries);
  const CounterId counter_overflow = reg.counter(overflow);
  const GaugeId gauge_overflow = reg.gauge(overflow);
  const HistogramId histogram_overflow = reg.histogram(overflow);
  for (std::size_t i = 0; i < kMaxCounters + kExtra; ++i)
    refused_counters +=
        reg.counter(numbered("c.n", i)).index == counter_overflow.index;
  for (std::size_t i = 0; i < kMaxGauges + kExtra; ++i)
    refused_gauges +=
        reg.gauge(numbered("g.n", i)).index == gauge_overflow.index;
  for (std::size_t i = 0; i < kMaxHistograms + kExtra; ++i)
    refused_histograms +=
        reg.histogram(numbered("h.n", i)).index == histogram_overflow.index;
  EXPECT_GE(refused_counters, kExtra);
  EXPECT_GE(refused_gauges, kExtra);
  EXPECT_GE(refused_histograms, kExtra);
  EXPECT_LE(reg.num_counters(), kMaxCounters);
  EXPECT_LE(reg.num_gauges(), kMaxGauges);
  EXPECT_LE(reg.num_histograms(), kMaxHistograms);

  // Each refused name counted once, though each was asked for twice.
  EXPECT_EQ(reg.counter_value(kRegistryOverflow),
            refused_counters + refused_gauges + refused_histograms);
  // The refused names' writes landed in the overflow series.
  EXPECT_EQ(reg.counter_value(counter_overflow), refused_counters);
  EXPECT_EQ(reg.gauge_value(gauge_overflow),
            static_cast<double>(kMaxGauges + kExtra - 1));
  const auto snap = reg.snapshot();
  std::uint64_t overflow_observations = 0;
  for (const auto& h : snap.histograms)
    if (h.name == overflow) overflow_observations = h.total();
  EXPECT_EQ(overflow_observations, refused_histograms);
  // Every name that was not refused kept its own series.
  std::size_t own = 0;
  for (const auto& c : snap.counters)
    own += c.name.rfind("c.n", 0) == 0 && c.value == 1;
  EXPECT_EQ(own, kMaxCounters + kExtra - refused_counters);

  EXPECT_THROW((void)reg.counter(""), ContractViolation);
  EXPECT_THROW((void)reg.gauge(""), ContractViolation);
  EXPECT_THROW((void)reg.histogram(""), ContractViolation);
}

/// A registry with every metric kind, and histograms with under- and
/// overflow, a sparse range and an empty range.
MetricsSnapshot mixed_snapshot() {
  MetricsRegistry reg;
  reg.add(reg.counter("c"), 7);
  reg.set(reg.gauge("g"), 3.14159);
  const HistogramId h = reg.histogram("h");
  reg.observe(h, -0.4);
  reg.observe(h, 1.0);
  reg.observe(h, 1.0);
  reg.observe(h, 250.0);
  reg.observe(h, 5e9);
  reg.observe(reg.histogram("only_overflow"), 5e9);
  reg.observe(reg.histogram("zero"), 0.0);
  return reg.snapshot();
}

TEST(MetricsSnapshot, CsvRoundTrips) {
  const auto snap = mixed_snapshot();
  const std::string csv = snap.to_csv();
  const auto back = MetricsSnapshot::from_csv(csv);
  EXPECT_EQ(back.to_csv(), csv);
  ASSERT_EQ(back.histograms.size(), 3u);
  EXPECT_EQ(back.histograms[0].buckets, snap.histograms[0].buckets);
  EXPECT_EQ(back.histograms[0].underflow, 1u);
  EXPECT_EQ(back.histograms[0].overflow, 1u);
  EXPECT_EQ(back.histograms[0].sum_fixed, snap.histograms[0].sum_fixed);
  EXPECT_EQ(back.histograms[1].buckets.size(), HistogramLayout::kBuckets);
  EXPECT_EQ(back.histograms[1].total(), 1u);
  // The occupied range only: first bucket, then counts to the last one.
  const std::size_t first = HistogramLayout::slot(1.0);
  const std::size_t last = HistogramLayout::slot(250.0);
  std::string row = "histogram,h,,1,1,252,";
  row += std::to_string(first);
  row += ",2";
  for (std::size_t b = first + 1; b < last; ++b) row += ";0";
  row += ";1\n";
  EXPECT_NE(csv.find(row), std::string::npos) << csv;
  EXPECT_NE(csv.find("histogram,only_overflow,,0,1,0,0,\n"),
            std::string::npos);
  EXPECT_NE(csv.find("histogram,zero,,0,0,0,0,1\n"), std::string::npos);
  EXPECT_THROW((void)MetricsSnapshot::from_csv(
                   "kind,name,value,underflow,overflow,sum,first,buckets\n"
                   "histogram,h,,0,0,0,640,1;1\n"),
               ContractViolation);
}

TEST(MetricsSnapshot, JsonRoundTripsThroughTheBenchDiffReader) {
  const auto snap = mixed_snapshot();
  const std::string json = snap.to_json();
  EXPECT_EQ(json.find("\"lo\""), std::string::npos);
  EXPECT_NE(json.find("\"first\": " +
                      std::to_string(HistogramLayout::slot(1.0))),
            std::string::npos);
  // pran-bench-diff reads snapshot JSON with from_json and digests it.
  const auto back = MetricsSnapshot::from_json(json);
  EXPECT_EQ(back.to_json(), json);
  EXPECT_EQ(back.to_csv(), snap.to_csv());
  ASSERT_EQ(back.histograms.size(), snap.histograms.size());
  for (std::size_t i = 0; i < snap.histograms.size(); ++i)
    for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0})
      EXPECT_EQ(back.histograms[i].quantile(q), snap.histograms[i].quantile(q))
          << snap.histograms[i].name << " q=" << q;
  // Input that does not fit the layout or is not a count is refused.
  EXPECT_THROW((void)MetricsSnapshot::from_json(
                   R"({"histograms": {"h": {"underflow": 0, "overflow": 0,
                       "sum": 0, "first": 640, "buckets": [1, 1]}}})"),
               ContractViolation);
  EXPECT_THROW((void)MetricsSnapshot::from_json(R"({"counters": {"c": -1}})"),
               ContractViolation);
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
  MetricsRegistry reg;
  const auto outer = spans.intern("outer");
  const auto inner = spans.intern("inner");
  {
    ScopedSpan a(spans, outer, reg, reg.histogram("span_us.outer"));
    ScopedSpan b(spans, inner, reg, reg.histogram("span_us.inner"),
                 /*arg0=*/7);
  }
  // Each span is counted in its histogram as it ends, in µs.
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].name, "span_us.inner");
  EXPECT_EQ(snap.histograms[0].total(), 1u);
  EXPECT_EQ(snap.histograms[1].total(), 1u);
  EXPECT_GE(snap.histograms[1].sum(), snap.histograms[0].sum());
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
  constexpr std::int64_t kCapacity = SpanCollector::kRingCapacity;
  SpanCollector spans;
  const auto id = spans.intern("s");
  for (std::int64_t i = 0; i < kCapacity + 6; ++i)
    record_span(spans, id, /*start_ns=*/i, /*duration_ns=*/1);
  EXPECT_EQ(spans.recorded(), SpanCollector::kRingCapacity + 6);
  EXPECT_EQ(spans.dropped(), 6u);
  const auto records = spans.records();
  ASSERT_EQ(records.size(), SpanCollector::kRingCapacity);
  // The tail survives, oldest-first.
  EXPECT_EQ(records.front().start_ns, 6);
  EXPECT_EQ(records.back().start_ns, kCapacity + 5);
}

TEST(SpanCollector, ChromeTraceExportsWallEventsOnly) {
  SpanCollector spans;
  MetricsRegistry reg;
  const auto wall = spans.intern("turbo_decode");
  const auto replan = spans.intern("controller_replan");
  {
    ScopedSpan s(spans, wall, reg, reg.histogram("span_us.turbo_decode"));
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

TEST(SpanCollector, ParallelRecordingKeepsEverySpan) {
  SpanCollector spans;
  MetricsRegistry reg;
  const auto id = spans.intern("work");
  const HistogramId h = reg.histogram("span_us.work");
  constexpr std::size_t kItems = 2'000;
  ThreadPool pool(4);
  pool.for_each(kItems, [&](unsigned, std::size_t) {
    ScopedSpan s(spans, id, reg, h);
  });
  EXPECT_EQ(spans.recorded(), kItems);
  EXPECT_EQ(spans.dropped(), 0u);
  EXPECT_GE(spans.lanes_in_use(), 1u);
  EXPECT_EQ(reg.snapshot().histograms[0].total(), kItems);
}

// ------------------------------------------------------------ global facade

/// Histogram `name` of `snap`; nullptr when absent.
const MetricsSnapshot::HistogramValue* find_histogram(
    const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

TEST(TelemetryGlobals, MacrosRecordIntoGlobalState) {
  reset_for_testing();
  {
    PRAN_SPAN("global_stage");
    PRAN_COUNTER_INC(registry(), "global_counter");
    PRAN_COUNTER_ADD(registry(), "global_counter", 4);
    PRAN_GAUGE_SET(registry(), "global_gauge", 2.5);
    PRAN_HIST_OBSERVE(registry(), "global_hist", 3.0);
  }
  // The metric macros stay compiled in at PRAN_TELEMETRY=OFF.
  EXPECT_EQ(registry().counter_value("global_counter"), 5u);
  EXPECT_DOUBLE_EQ(registry().gauge_value(registry().gauge("global_gauge")),
                   2.5);
  const MetricsSnapshot snap = registry().snapshot();
  const auto* hist = find_histogram(snap, "global_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->quantile(0.5), 3.125);
  if (!enabled()) GTEST_SKIP() << "span macros compiled out";
  EXPECT_EQ(spans().recorded(), 1u);
  const auto* span = find_histogram(snap, "span_us.global_stage");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->total(), 1u);
  reset_for_testing();
  EXPECT_EQ(registry().num_counters(), 0u);
  EXPECT_EQ(spans().recorded(), 0u);
}

/// One span call site, entered `n` times.
void run_stage(int n) {
  for (int i = 0; i < n; ++i) {
    PRAN_SPAN("complete_stage");
  }
}

TEST(TelemetryGlobals, SpanHistogramCountsEverySpanTheRingDrops) {
  if (!enabled()) GTEST_SKIP() << "span macros compiled out";
  reset_for_testing();
  run_stage(40'000);
  // The ring keeps the last 32,768 for the trace; the histogram keeps all.
  EXPECT_EQ(spans().recorded(), 40'000u);
  EXPECT_EQ(spans().dropped(), 7'232u);
  const MetricsSnapshot full = registry().snapshot();
  const auto* span = find_histogram(full, "span_us.complete_stage");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->total(), 40'000u);
  // After a reset the site registers its histogram in the new registry.
  reset_for_testing();
  run_stage(1);
  const MetricsSnapshot after = registry().snapshot();
  span = find_histogram(after, "span_us.complete_stage");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->total(), 1u);
  reset_for_testing();
}

/// One span call site.
void run_probe_stage() { PRAN_SPAN("probe_stage"); }

TEST(TelemetryGlobals, SpanSiteKeepsItsNameAcrossReset) {
  if (!enabled()) GTEST_SKIP() << "span macros compiled out";
  reset_for_testing();
  run_probe_stage();
  // The rebuilt collector hands the site's old name id to another name.
  reset_for_testing();
  (void)spans().intern("other_stage");
  run_probe_stage();
  const std::string trace = spans().to_chrome_trace();
  EXPECT_NE(trace.find("\"name\":\"probe_stage\""), std::string::npos);
  EXPECT_EQ(trace.find("\"name\":\"other_stage\""), std::string::npos);
  const MetricsSnapshot snap = registry().snapshot();
  const auto* span = find_histogram(snap, "span_us.probe_stage");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->total(), 1u);
  reset_for_testing();
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
