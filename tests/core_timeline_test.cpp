// Integration tests for the deployment KPI timeline: a small Deployment
// with config.timeline enabled must sample windows on the sim-time
// cadence, carry the per-cell labelled series, export SLO gauges into the
// registry, stream JSONL, and dump a parseable flight-recorder post-mortem
// on demand that holds only the deployment's own jobs.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "core/deployment.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/timeseries.hpp"

namespace pran::core {
namespace {

DeploymentConfig timeline_config() {
  DeploymentConfig config;
  config.num_cells = 4;
  config.num_servers = 3;
  config.seed = 5;
  config.start_hour = 12.0;
  config.epoch = 200 * sim::kMillisecond;
  config.timeline.enabled = true;
  config.timeline.window = 10 * sim::kMillisecond;
  return config;
}

TEST(DeploymentTimeline, SamplesWindowsWithPerCellSeries) {
  Deployment d(timeline_config());
  d.run_for(300 * sim::kMillisecond);

  const telemetry::TimeSeriesRecorder* rec = d.timeline_recorder();
  ASSERT_NE(rec, nullptr);
  // 10 ms cadence over 300 ms: first window closes at t=10ms.
  EXPECT_GE(rec->windows_sampled(), 29u);
  ASSERT_FALSE(rec->windows().empty());

  // A steady-state window carries the scalar and the per-cell labelled
  // subframe counters: 4 cells x ~10 TTIs per 10 ms window.
  const telemetry::WindowSample& w = rec->windows().back();
  EXPECT_GT(w.counter_delta("deployment.subframes"), 0u);
  std::uint64_t per_cell_total = 0;
  for (int cell = 0; cell < 4; ++cell)
    per_cell_total += w.counter_delta("deployment.cell_subframes{cell=" +
                                      std::to_string(cell) + "}");
  EXPECT_EQ(per_cell_total, w.counter_delta("deployment.subframes"));
}

TEST(DeploymentTimeline, ExportsSloGaugesIntoTheRegistry) {
  Deployment d(timeline_config());
  d.run_for(100 * sim::kMillisecond);
  ASSERT_NE(d.slo_engine(), nullptr);
  EXPECT_NE(d.slo_engine()->find("deadline_miss_rate"), nullptr);

  const telemetry::MetricsSnapshot snap = d.metrics().snapshot();
  bool objective_seen = false;
  bool burn_seen = false;
  for (const auto& g : snap.gauges) {
    if (g.name == "slo.deadline_miss_rate.objective") {
      objective_seen = true;
      EXPECT_DOUBLE_EQ(g.value, 1e-3);
    }
    if (g.name == "slo.deadline_miss_rate.burn_short") burn_seen = true;
  }
  EXPECT_TRUE(objective_seen);
  EXPECT_TRUE(burn_seen);
  // A healthy small deployment misses nothing: no trips.
  EXPECT_EQ(d.metrics().counter_value("slo.deadline_miss_rate.trips"), 0u);
}

TEST(DeploymentTimeline, StreamsJsonlAndDumpsPostmortemOnDemand) {
  const std::string dir = testing::TempDir();
  const std::string jsonl = dir + "/pran_core_timeline_test.jsonl";
  DeploymentConfig config = timeline_config();
  config.timeline.timeline_out = jsonl;
  config.timeline.postmortem_dir = dir;
  Deployment d(config);
  d.run_for(100 * sim::kMillisecond);

  const std::string dump = d.trigger_postmortem("abort", "test harness");
  ASSERT_FALSE(dump.empty());
  std::ifstream pm(dump);
  ASSERT_TRUE(pm.is_open());
  std::stringstream ss;
  ss << pm.rdbuf();
  const json::Value doc = json::Value::parse(ss.str());
  EXPECT_EQ(doc.at("kind").as_string(), "pran_postmortem");
  EXPECT_EQ(doc.at("reason").as_string(), "abort");
  EXPECT_FALSE(doc.at("windows").items().empty());

  std::ifstream in(jsonl);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const json::Value w = json::Value::parse(line);
    EXPECT_DOUBLE_EQ(w.at("window").as_number(), static_cast<double>(lines));
    ++lines;
  }
  EXPECT_GE(lines, 9u);
  std::remove(dump.c_str());
  std::remove(jsonl.c_str());
}

TEST(DeploymentTimeline, EveryWindowSeesItsOwnLateBursts) {
  // 16 cells on one 10 Gbit/s fibre: the queue never drains, so all but
  // the first bursts are late, and each window must say so, not one
  // window in five.
  DeploymentConfig config;
  config.num_cells = 16;
  config.num_servers = 6;
  config.shared_fronthaul =
      fronthaul::LinkParams{units::BitRate{10e9}, 25 * sim::kMicrosecond};
  config.timeline.enabled = true;
  Deployment d(config);
  d.run_for(sim::kSecond);

  const telemetry::TimeSeriesRecorder* rec = d.timeline_recorder();
  ASSERT_NE(rec, nullptr);
  ASSERT_GE(rec->windows().size(), 9u);
  for (const telemetry::WindowSample& w : rec->windows()) {
    SCOPED_TRACE(w.index);
    // Only the run's first two bursts find the fibre idle enough: cell
    // 1 waits one 369 us burst, under the 500 us late threshold.
    const std::uint64_t on_time = w.index == 0 ? 2 : 0;
    EXPECT_GT(w.counter_delta("fronthaul.bursts"), 0u);
    EXPECT_EQ(w.counter_delta("fronthaul.late_bursts") + on_time,
              w.counter_delta("fronthaul.bursts"));
  }
  // A steady burn trips the lateness alert once, not once per epoch.
  ASSERT_NE(d.slo_engine()->find("fronthaul_late_rate"), nullptr);
  EXPECT_EQ(d.metrics().counter_value("slo.fronthaul_late_rate.trips"), 1u);
}

TEST(DeploymentTimeline, PostmortemsListOnlyTheirOwnJobs) {
  // A (2 cells on 1 server) and B (8 cells on 4 servers) run interleaved
  // on one thread; each black box must hold its own deployment's jobs,
  // exactly as that deployment records them when it runs alone.
  const auto config = [](int cells, int servers) {
    DeploymentConfig c = timeline_config();
    c.num_cells = cells;
    c.num_servers = servers;
    return c;
  };
  const auto jobs = [](const Deployment& d) {
    return d.flight_recorder()
        ->build_postmortem(d.now(), "test", "")
        .at("jobs");
  };
  Deployment a(config(2, 1));
  Deployment b(config(8, 4));
  a.run_for(50 * sim::kMillisecond);
  b.run_for(100 * sim::kMillisecond);
  a.run_for(50 * sim::kMillisecond);

  const json::Value a_jobs = jobs(a);
  const json::Value b_jobs = jobs(b);
  // A ran ~200 jobs (all kept); B ran ~800, so its ring is full.
  ASSERT_FALSE(a_jobs.items().empty());
  EXPECT_LT(a_jobs.items().size(), telemetry::FlightRecorder::kMaxJobs);
  EXPECT_EQ(b_jobs.items().size(), telemetry::FlightRecorder::kMaxJobs);
  double last_t_ms = 0.0;
  for (const json::Value& job : a_jobs.items()) {
    EXPECT_LT(job.at("cell").as_number(), 2.0);
    EXPECT_EQ(job.at("server").as_number(), 0.0);
    EXPECT_GE(job.at("t_ms").as_number(), last_t_ms);  // oldest first
    last_t_ms = job.at("t_ms").as_number();
  }
  last_t_ms = 0.0;
  for (const json::Value& job : b_jobs.items()) {
    EXPECT_LT(job.at("cell").as_number(), 8.0);
    EXPECT_LT(job.at("server").as_number(), 4.0);
    EXPECT_GE(job.at("t_ms").as_number(), last_t_ms);
    last_t_ms = job.at("t_ms").as_number();
  }

  Deployment a_alone(config(2, 1));
  a_alone.run_for(100 * sim::kMillisecond);
  Deployment b_alone(config(8, 4));
  b_alone.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(a_jobs.dump(), jobs(a_alone).dump());
  EXPECT_EQ(b_jobs.dump(), jobs(b_alone).dump());
}

TEST(DeploymentTimeline, OffByDefaultCostsNothing) {
  DeploymentConfig config = timeline_config();
  config.timeline.enabled = false;
  Deployment d(config);
  d.run_for(50 * sim::kMillisecond);
  EXPECT_EQ(d.timeline_recorder(), nullptr);
  EXPECT_EQ(d.slo_engine(), nullptr);
  EXPECT_EQ(d.flight_recorder(), nullptr);
  EXPECT_EQ(d.trigger_postmortem("abort", "x"), "");
}

}  // namespace
}  // namespace pran::core
