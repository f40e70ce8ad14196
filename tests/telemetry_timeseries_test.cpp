// Tests for the KPI timeline stack: labelled metric families
// (telemetry/family.hpp), the windowed TimeSeriesRecorder
// (telemetry/timeseries.hpp), SLO burn-rate evaluation (telemetry/slo.hpp)
// and the anomaly flight recorder (telemetry/flight_recorder.hpp). The SLO
// tests drive a scripted KPI sequence so trip behaviour is deterministic.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "sim/time.hpp"
#include "telemetry/family.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/timeseries.hpp"

namespace pran::telemetry {
namespace {

// --------------------------------------------------------------------------
// Labelled families.

TEST(MetricFamily, SeriesNamesFlattenAndParseBack) {
  EXPECT_EQ(series_name("deployment.cell_misses", "cell", "3"),
            "deployment.cell_misses{cell=3}");
  ParsedSeries parsed;
  ASSERT_TRUE(parse_series_name("deployment.cell_misses{cell=3}", parsed));
  EXPECT_EQ(parsed.base, "deployment.cell_misses");
  EXPECT_EQ(parsed.key, "cell");
  EXPECT_EQ(parsed.value, "3");
  EXPECT_FALSE(parse_series_name("deployment.subframes", parsed));
}

TEST(MetricFamily, LabelKeysComeFromTheAllowlist) {
  EXPECT_TRUE(label_key_allowed("cell"));
  EXPECT_TRUE(label_key_allowed("server"));
  EXPECT_TRUE(label_key_allowed("rung"));
  EXPECT_TRUE(label_key_allowed("slice"));
  EXPECT_FALSE(label_key_allowed("user"));
  EXPECT_FALSE(label_key_allowed(""));
  MetricsRegistry registry;
  EXPECT_THROW(CounterFamily(registry, "deployment.cell_misses", "user"),
               ContractViolation);
}

TEST(MetricFamily, CounterFamilyWritesFlattenedSeries) {
  MetricsRegistry registry;
  CounterFamily misses(registry, "deployment.cell_misses", "cell");
  misses.inc(0);
  misses.add(2, 5);
  misses.inc(2);
  EXPECT_EQ(misses.value(0), 1u);
  EXPECT_EQ(misses.value(1), 0u);  // never touched
  EXPECT_EQ(misses.value(2), 6u);

  const MetricsSnapshot snap = registry.snapshot();
  std::uint64_t cell0 = 0;
  std::uint64_t cell2 = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "deployment.cell_misses{cell=0}") cell0 = c.value;
    if (c.name == "deployment.cell_misses{cell=2}") cell2 = c.value;
    EXPECT_NE(c.name, "deployment.cell_misses{cell=1}");
  }
  EXPECT_EQ(cell0, 1u);
  EXPECT_EQ(cell2, 6u);
}

TEST(MetricFamily, OverflowLabelsFoldIntoClampSeries) {
  MetricsRegistry registry;
  CounterFamily misses(registry, "deployment.cell_misses", "cell",
                       /*max_series=*/4);
  misses.inc(3);    // last concrete slot
  misses.inc(4);    // first overflow label
  misses.inc(900);  // far overflow label, same clamp series
  EXPECT_EQ(misses.value(3), 1u);
  EXPECT_EQ(misses.value(4), 2u);   // reads the clamp series
  EXPECT_EQ(misses.value(900), 2u);

  const MetricsSnapshot snap = registry.snapshot();
  std::uint64_t clamp = 0;
  std::uint64_t overflowed = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "deployment.cell_misses{cell=other}") clamp = c.value;
    if (c.name == "telemetry.label_overflow") overflowed = c.value;
  }
  EXPECT_EQ(clamp, 2u);
  EXPECT_EQ(overflowed, 2u);
}

TEST(MetricFamily, GaugeAndHistogramFamilies) {
  MetricsRegistry registry;
  GaugeFamily load(registry, "server.load", "server");
  load.set(1, 0.75);
  load.set(1, 0.5);  // last write wins
  EXPECT_DOUBLE_EQ(load.value(1), 0.5);
  EXPECT_DOUBLE_EQ(load.value(0), 0.0);
}

// --------------------------------------------------------------------------
// TimeSeriesRecorder.

TEST(TimeSeriesRecorder, BaselinesAtConstructionAndDiffsWindows) {
  MetricsRegistry registry;
  const CounterId jobs = registry.counter("deployment.subframes");
  const CounterId misses = registry.counter("deployment.deadline_misses");
  const GaugeId depth = registry.gauge("executor.queue_depth");
  registry.add(jobs, 100);  // pre-construction state must not leak in

  TimeSeriesRecorder rec(registry, {10 * sim::kMillisecond, 8});
  registry.add(jobs, 50);
  registry.set(depth, 3.0);
  const WindowSample& w0 = rec.sample(10 * sim::kMillisecond);
  EXPECT_EQ(w0.index, 0u);
  EXPECT_EQ(w0.t_start, 0);
  EXPECT_EQ(w0.t_end, 10 * sim::kMillisecond);
  EXPECT_EQ(w0.counter_delta("deployment.subframes"), 50u);
  // Zero-delta counters are omitted entirely.
  EXPECT_EQ(w0.counter_delta("deployment.deadline_misses"), 0u);
  for (const auto& c : w0.counters)
    EXPECT_NE(c.name, "deployment.deadline_misses");
  // Gauges are carried as sampled values, not diffed.
  EXPECT_DOUBLE_EQ(w0.gauge("executor.queue_depth"), 3.0);

  registry.add(misses, 2);
  const WindowSample& w1 = rec.sample(20 * sim::kMillisecond);
  EXPECT_EQ(w1.index, 1u);
  EXPECT_EQ(w1.t_start, 10 * sim::kMillisecond);
  EXPECT_EQ(w1.counter_delta("deployment.deadline_misses"), 2u);
  EXPECT_EQ(w1.counter_delta("deployment.subframes"), 0u);
  EXPECT_EQ(rec.windows_sampled(), 2u);
}

TEST(TimeSeriesRecorder, HistogramWindowsDigestBucketDeltas) {
  MetricsRegistry registry;
  const HistogramId h = registry.histogram("decode.us");
  TimeSeriesRecorder rec(registry, {10 * sim::kMillisecond, 8});

  for (int i = 0; i < 99; ++i) registry.observe(h, 10.5);
  registry.observe(h, 90.5);
  const WindowSample& w0 = rec.sample(10 * sim::kMillisecond);
  ASSERT_EQ(w0.histograms.size(), 1u);
  EXPECT_EQ(w0.histograms[0].name, "decode.us");
  EXPECT_EQ(w0.histograms[0].count, 100u);
  EXPECT_NEAR(w0.histograms[0].mean, 11.3, 1e-9);
  EXPECT_DOUBLE_EQ(w0.histograms[0].p50, 11.0);  // upper edge of [10.5, 11)
  EXPECT_DOUBLE_EQ(w0.histograms[0].p95, 11.0);
  EXPECT_DOUBLE_EQ(w0.histograms[0].p99, 11.0);
  // The digest is per-window: a quiet window drops the histogram even
  // though the cumulative registry histogram still has mass.
  const WindowSample& w1 = rec.sample(20 * sim::kMillisecond);
  EXPECT_TRUE(w1.histograms.empty());
  // A later spike shows up with the window's own quantiles, unpolluted by
  // the earlier 10.5 mass.
  registry.observe(h, 90.5);
  const WindowSample& w2 = rec.sample(30 * sim::kMillisecond);
  ASSERT_EQ(w2.histograms.size(), 1u);
  EXPECT_EQ(w2.histograms[0].count, 1u);
  EXPECT_DOUBLE_EQ(w2.histograms[0].mean, 90.5);
  EXPECT_DOUBLE_EQ(w2.histograms[0].p50, 92.0);  // upper edge of [88, 92)
  // A window whose only observations underflow digests to edge 0.
  registry.observe(h, -3.0);
  const WindowSample& w3 = rec.sample(40 * sim::kMillisecond);
  ASSERT_EQ(w3.histograms.size(), 1u);
  EXPECT_EQ(w3.histograms[0].count, 1u);
  EXPECT_DOUBLE_EQ(w3.histograms[0].p99, 0.0);
}

TEST(TimeSeriesRecorder, RingIsBoundedByHistory) {
  MetricsRegistry registry;
  TimeSeriesRecorder rec(registry, {sim::kMillisecond, 4});
  for (int i = 1; i <= 10; ++i) rec.sample(i * sim::kMillisecond);
  EXPECT_EQ(rec.windows().size(), 4u);
  EXPECT_EQ(rec.windows().front().index, 6u);
  EXPECT_EQ(rec.windows().back().index, 9u);
  EXPECT_EQ(rec.windows_sampled(), 10u);
}

TEST(TimeSeriesRecorder, JsonlStreamHasOneParseableObjectPerWindow) {
  const std::string path =
      testing::TempDir() + "/pran_timeseries_test_timeline.jsonl";
  MetricsRegistry registry;
  const CounterId jobs = registry.counter("deployment.subframes");
  TimeSeriesRecorder rec(registry, {10 * sim::kMillisecond, 8});
  rec.open_jsonl(path);
  registry.add(jobs, 7);
  rec.sample(10 * sim::kMillisecond);
  rec.sample(20 * sim::kMillisecond);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::vector<json::Value> docs;
  while (std::getline(in, line)) docs.push_back(json::Value::parse(line));
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_DOUBLE_EQ(docs[0].at("window").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(docs[0].at("t_end_ms").as_number(), 10.0);
  EXPECT_DOUBLE_EQ(
      docs[0].at("counters").at("deployment.subframes").as_number(), 7.0);
  // Window 1 saw no counter movement: the counters object is empty.
  EXPECT_TRUE(docs[1].at("counters").members().empty());
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// SLO burn-rate engine, driven by a scripted KPI sequence.

/// Drives `engine` with one window where `bad`/`total` land on the two
/// counters of a "miss_rate"-shaped SLO. Returns the tripped names.
std::vector<std::string> scripted_window(MetricsRegistry& registry,
                                         TimeSeriesRecorder& rec,
                                         SloEngine& engine, std::uint64_t bad,
                                         std::uint64_t total, sim::Time now) {
  registry.add(registry.counter("test.bad"), bad);
  registry.add(registry.counter("test.total"), total);
  return engine.on_window(rec.sample(now));
}

SloSpec scripted_spec() {
  SloSpec spec;
  spec.name = "miss_rate";
  spec.bad_counter = "test.bad";
  spec.total_counter = "test.total";
  spec.objective = 1e-2;  // 1% budget
  spec.short_windows = 2;
  spec.long_windows = 6;
  spec.burn_threshold = 4.0;
  return spec;
}

TEST(SloEngine, BurnRatesTripOnRisingEdgeOnly) {
  MetricsRegistry registry;
  TimeSeriesRecorder rec(registry, {10 * sim::kMillisecond, 32});
  SloEngine engine(registry, {scripted_spec()});

  // Healthy windows: 1 bad per 1000 = 0.1% -> burn 0.1, no trip.
  sim::Time now = 0;
  for (int i = 0; i < 6; ++i) {
    now += 10 * sim::kMillisecond;
    EXPECT_TRUE(scripted_window(registry, rec, engine, 1, 1000, now).empty());
  }
  const SloStatus* st = engine.find("miss_rate");
  ASSERT_NE(st, nullptr);
  EXPECT_NEAR(st->burn_short, 0.1, 1e-12);
  EXPECT_NEAR(st->burn_long, 0.1, 1e-12);
  const auto trips = [&registry] {
    return registry.counter_value("slo.miss_rate.trips");
  };
  EXPECT_EQ(trips(), 0u);

  // One bad window alone (burn_short spikes, burn_long still diluted by
  // five healthy windows) must NOT trip: 101 bad over 6005 total is
  // ~1.68% -> burn_long ~1.68 < 4.
  now += 10 * sim::kMillisecond;
  EXPECT_TRUE(scripted_window(registry, rec, engine, 100, 1000, now).empty());
  EXPECT_GE(st->burn_short, 4.0);
  EXPECT_LT(st->burn_long, 4.0);
  EXPECT_EQ(trips(), 0u);

  // Sustained badness: the long window catches up and the alert fires
  // exactly once (rising edge), then stays silent while still above.
  std::uint64_t trips_seen = 0;
  for (int i = 0; i < 4; ++i) {
    now += 10 * sim::kMillisecond;
    const auto tripped =
        scripted_window(registry, rec, engine, 100, 1000, now);
    trips_seen += tripped.size();
    if (!tripped.empty()) {
      EXPECT_EQ(tripped[0], "miss_rate");
    }
  }
  EXPECT_EQ(trips_seen, 1u);
  EXPECT_EQ(trips(), 1u);
  EXPECT_TRUE(st->tripping);

  // Recovery clears the episode; a relapse trips again (a second episode).
  for (int i = 0; i < 6; ++i) {
    now += 10 * sim::kMillisecond;
    EXPECT_TRUE(scripted_window(registry, rec, engine, 0, 1000, now).empty());
  }
  EXPECT_FALSE(engine.find("miss_rate")->tripping);
  std::uint64_t relapse_trips = 0;
  for (int i = 0; i < 6; ++i) {
    now += 10 * sim::kMillisecond;
    relapse_trips +=
        scripted_window(registry, rec, engine, 100, 1000, now).size();
  }
  EXPECT_EQ(relapse_trips, 1u);
  EXPECT_EQ(trips(), 2u);
}

TEST(SloEngine, ExportsGaugesAndTripCounterIntoTheRegistry) {
  MetricsRegistry registry;
  TimeSeriesRecorder rec(registry, {10 * sim::kMillisecond, 32});
  SloEngine engine(registry, {scripted_spec()});
  sim::Time now = 0;
  for (int i = 0; i < 6; ++i) {
    now += 10 * sim::kMillisecond;
    scripted_window(registry, rec, engine, 50, 1000, now);  // 5% = burn 5
  }
  const MetricsSnapshot snap = registry.snapshot();
  double burn_short = -1.0;
  double objective = -1.0;
  double run_rate = -1.0;
  double budget = -1.0;
  std::uint64_t trips = 0;
  for (const auto& g : snap.gauges) {
    if (g.name == "slo.miss_rate.burn_short") burn_short = g.value;
    if (g.name == "slo.miss_rate.objective") objective = g.value;
    if (g.name == "slo.miss_rate.run_rate") run_rate = g.value;
    if (g.name == "slo.miss_rate.budget_consumed") budget = g.value;
  }
  for (const auto& c : snap.counters)
    if (c.name == "slo.miss_rate.trips") trips = c.value;
  EXPECT_NEAR(burn_short, 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(objective, 1e-2);
  EXPECT_NEAR(run_rate, 0.05, 1e-12);
  EXPECT_NEAR(budget, 5.0, 1e-9);
  EXPECT_EQ(trips, 1u);
}

TEST(SloEngine, EmptyWindowsKeepBurnAtZero) {
  MetricsRegistry registry;
  TimeSeriesRecorder rec(registry, {10 * sim::kMillisecond, 32});
  SloEngine engine(registry, {scripted_spec()});
  EXPECT_TRUE(engine.on_window(rec.sample(10 * sim::kMillisecond)).empty());
  const SloStatus* st = engine.find("miss_rate");
  ASSERT_NE(st, nullptr);
  EXPECT_DOUBLE_EQ(st->burn_short, 0.0);
  EXPECT_DOUBLE_EQ(st->run_rate, 0.0);
}

TEST(SloEngine, RejectsMalformedSpecs) {
  MetricsRegistry registry;
  SloSpec bad = scripted_spec();
  bad.objective = 0.0;
  EXPECT_THROW(SloEngine(registry, {bad}), ContractViolation);
  bad = scripted_spec();
  bad.short_windows = 8;  // > long_windows
  EXPECT_THROW(SloEngine(registry, {bad}), ContractViolation);
}

TEST(SloEngine, DefaultDeploymentSlosAreWellFormed) {
  MetricsRegistry registry;
  SloEngine engine(registry, default_deployment_slos());
  EXPECT_NE(engine.find("deadline_miss_rate"), nullptr);
  EXPECT_NE(engine.find("compute_outage_rate"), nullptr);
  EXPECT_NE(engine.find("fronthaul_late_rate"), nullptr);
  EXPECT_DOUBLE_EQ(engine.find("deadline_miss_rate")->spec.objective, 1e-3);
}

// --------------------------------------------------------------------------
// Flight recorder.

TEST(FlightRecorder, PostmortemCarriesWindowsTransitionsAndEvents) {
  constexpr std::size_t kWindows = FlightRecorder::kMaxWindows + 1;
  MetricsRegistry registry;
  const CounterId jobs = registry.counter("deployment.subframes");
  TimeSeriesRecorder rec(registry, {10 * sim::kMillisecond, kWindows});
  FlightRecorder box(rec, FlightRecorder::Config{});  // record-only

  for (std::size_t w = 1; w <= kWindows; ++w) {
    registry.add(jobs, 10 * w);
    rec.sample(static_cast<sim::Time>(w) * 10 * sim::kMillisecond);
  }
  box.record_transition(25 * sim::kMillisecond, 0, 1, "compress");
  box.record_event(28 * sim::kMillisecond, "quarantine", "server 2");

  const json::Value doc =
      box.build_postmortem(30 * sim::kMillisecond, "slo_trip",
                           "fronthaul_late_rate");
  EXPECT_EQ(doc.at("reason").as_string(), "slo_trip");
  EXPECT_EQ(doc.at("detail").as_string(), "fronthaul_late_rate");
  // A dump keeps only the newest kMaxWindows of the closed windows.
  ASSERT_EQ(doc.at("windows").items().size(), FlightRecorder::kMaxWindows);
  EXPECT_DOUBLE_EQ(doc.at("windows").items()[0].at("window").as_number(), 1.0);
  const auto& transitions = doc.at("ladder_transitions").items();
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].at("rung_name").as_string(), "compress");
  EXPECT_DOUBLE_EQ(transitions[0].at("to_rung").as_number(), 1.0);
  const auto& events = doc.at("events").items();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("kind").as_string(), "quarantine");
  EXPECT_TRUE(doc.at("jobs").items().empty());

  // Record-only mode: trigger counts but writes nothing.
  EXPECT_EQ(box.trigger(30 * sim::kMillisecond, "slo_trip", "x"), "");
  EXPECT_EQ(box.triggers(), 1u);
  EXPECT_EQ(box.dumps_written(), 0u);
}

TEST(FlightRecorder, JobRingKeepsTheNewestOldestFirst) {
  MetricsRegistry registry;
  TimeSeriesRecorder rec(registry, {10 * sim::kMillisecond, 8});
  FlightRecorder box(rec, FlightRecorder::Config{});
  using Outcome = FlightRecorder::JobOutcome;
  const Outcome cycle[4] = {Outcome::kOnTime, Outcome::kLate,
                            Outcome::kDropped, Outcome::kOutage};
  const char* const names[4] = {"on_time", "late", "dropped", "outage"};
  // 100 more jobs than the ring holds: only the newest kMaxJobs survive.
  constexpr int kJobs = static_cast<int>(FlightRecorder::kMaxJobs) + 100;
  for (int i = 0; i < kJobs; ++i) {
    const Outcome outcome = cycle[i % 4];
    const bool ran = outcome == Outcome::kOnTime || outcome == Outcome::kLate;
    box.record_job(i * sim::kMillisecond, i % 3, i % 7, i,
                   ran ? 400 * sim::kMicrosecond : -1, outcome);
  }

  const json::Value doc = box.build_postmortem(kJobs * sim::kMillisecond,
                                               "abort", "ring order");
  const auto& jobs = doc.at("jobs").items();
  ASSERT_EQ(jobs.size(), FlightRecorder::kMaxJobs);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const int i = 100 + static_cast<int>(k);  // oldest survivor first
    SCOPED_TRACE(i);
    EXPECT_DOUBLE_EQ(jobs[k].at("tti").as_number(), i);
    EXPECT_DOUBLE_EQ(jobs[k].at("t_ms").as_number(), i);
    EXPECT_DOUBLE_EQ(jobs[k].at("server").as_number(), i % 3);
    EXPECT_DOUBLE_EQ(jobs[k].at("cell").as_number(), i % 7);
    EXPECT_EQ(jobs[k].at("outcome").as_string(), names[i % 4]);
    // Only jobs that ran carry a service time.
    if (i % 4 < 2)
      EXPECT_DOUBLE_EQ(jobs[k].at("dur_ms").as_number(), 0.4);
    else
      EXPECT_EQ(jobs[k].find("dur_ms"), nullptr);
  }
}

TEST(FlightRecorder, WritesRateLimitedDumpsToDisk) {
  MetricsRegistry registry;
  TimeSeriesRecorder rec(registry, {10 * sim::kMillisecond, 8});
  FlightRecorder::Config config;
  config.out_dir = testing::TempDir();
  FlightRecorder box(rec, config);
  rec.sample(10 * sim::kMillisecond);

  std::vector<std::string> paths;
  for (std::size_t i = 0; i < FlightRecorder::kMaxDumps; ++i) {
    paths.push_back(box.trigger(static_cast<sim::Time>(i + 1) * sim::kMillisecond,
                                i == 0 ? "slo_trip" : "quarantine", "x"));
    ASSERT_FALSE(paths.back().empty()) << "dump " << i;
  }
  // The budget is spent: the next trigger still counts but writes nothing.
  EXPECT_EQ(box.trigger(30 * sim::kMillisecond, "abort", "x"), "");
  EXPECT_EQ(box.triggers(), FlightRecorder::kMaxDumps + 1);
  EXPECT_EQ(box.dumps_written(), FlightRecorder::kMaxDumps);

  std::ifstream in(paths.front());
  ASSERT_TRUE(in.is_open());
  std::stringstream ss;
  ss << in.rdbuf();
  const json::Value doc = json::Value::parse(ss.str());
  EXPECT_EQ(doc.at("kind").as_string(), "pran_postmortem");
  EXPECT_EQ(doc.at("reason").as_string(), "slo_trip");
  ASSERT_EQ(doc.at("windows").items().size(), 1u);
  for (const std::string& path : paths) std::remove(path.c_str());
}

}  // namespace
}  // namespace pran::telemetry
