// E18 — Fault injection: what failures cost once detection is not free.
//
// Three questions the fault subsystem answers:
//  (a) detection delay: with heartbeat detection instead of an oracle, the
//      controller keeps feeding a dead server until the monitor declares
//      it — blind-window drops grow with the detection timeout;
//  (b) survivable placement: reserving re-pack headroom (N+1 among the
//      hosting servers) eliminates single-failure outage, at a measured
//      extra-servers/energy cost — and is honestly refused when the fleet
//      cannot support it;
//  (c) flap quarantine: exponential-backoff quarantine of a flapping
//      server cuts migration churn and the repeated damage of re-placing
//      onto a server about to die again.
//
// All sweeps are deterministic for a fixed seed and invariant in
// --threads (each grid point owns its RNG substreams and result slot).

#include <cstdio>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "telemetry/telemetry.hpp"
#include "core/deployment.hpp"

namespace {

using namespace pran;

core::DeploymentConfig base_config() {
  core::DeploymentConfig config;
  config.num_cells = 6;
  config.num_servers = 4;
  config.seed = 31;
  config.start_hour = 11.0;
  config.day_compression = 60.0;
  return config;
}

// ---------------------------------------------------------------- Table A

struct DetectPoint {
  double mtbf_s;
  sim::Time heartbeat;
  int miss_threshold;
  const char* label;
};

struct DetectResult {
  core::DeploymentKpis kpis;
  telemetry::MetricsSnapshot metrics;
};

void run_detection_sweep(unsigned threads) {
  std::printf(
      "A: stochastic crashes (mttr 100 ms), detection timeout sweep, 6 "
      "cells / 4 servers, HARQ on, 3 s runs\n\n");

  const std::vector<DetectPoint> grid = {
      {0.5, 0, 0, "oracle"},
      {0.5, 10 * sim::kMillisecond, 3, "hb10ms x3 (30 ms)"},
      {0.5, 10 * sim::kMillisecond, 9, "hb10ms x9 (90 ms)"},
      {2.0, 0, 0, "oracle"},
      {2.0, 10 * sim::kMillisecond, 3, "hb10ms x3 (30 ms)"},
      {2.0, 10 * sim::kMillisecond, 9, "hb10ms x9 (90 ms)"},
  };

  std::vector<DetectResult> results(grid.size());
  parallel_for_each(threads, grid.size(), [&](unsigned, std::size_t i) {
    auto config = base_config();
    config.harq_retransmissions = true;
    config.stochastic_faults.mtbf_seconds = grid[i].mtbf_s;
    config.stochastic_faults.mttr_seconds = 0.1;
    config.heartbeat_period = grid[i].heartbeat;
    config.heartbeat_miss_threshold = grid[i].miss_threshold;
    core::Deployment d(config);
    d.run_for(3 * sim::kSecond);
    results[i].kpis = d.kpis();
    results[i].metrics = d.metrics().snapshot();
  });
  // Merged in grid order, so the exported gauges are --threads invariant.
  for (const auto& r : results) telemetry::registry().merge(r.metrics);

  Table table({"mtbf_s", "detection", "faults", "detected", "mean_detect_ms",
               "blind_drops", "dropped", "lost_tbs", "miss_ratio"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& k = results[i].kpis;
    table.row()
        .cell(grid[i].mtbf_s, 1)
        .cell(grid[i].label)
        .cell(k.faults_injected)
        .cell(k.fault_detections)
        .cell(k.mean_detection_latency_ms, 1)
        .cell(static_cast<long long>(k.blind_window_drops))
        .cell(static_cast<long long>(k.dropped))
        .cell(static_cast<long long>(k.lost_transport_blocks))
        .cell(k.miss_ratio, 5);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: every extra heartbeat of detection timeout is a longer "
      "blind window — drops and lost TBs grow with it; the oracle rows "
      "are the E8 idealisation\n\n");
}

// ---------------------------------------------------------------- Table B

void run_survivability_table() {
  std::printf(
      "B: one scripted failure of the busiest server at t=800 ms, 30 "
      "cells, 2.5 s runs\n\n");

  Table table({"servers", "mode", "outage_cells", "outage_cell_ttis",
               "mean_active", "energy_j", "migrations"});
  for (int servers : {4, 5, 6}) {
    for (const bool survivable : {false, true}) {
      auto config = base_config();
      config.num_cells = 30;
      config.num_servers = servers;
      config.controller.survivable = survivable;
      auto& row = table.row();
      row.cell(servers).cell(survivable ? "survivable" : "plain");
      try {
        core::Deployment d(config);
        d.run_for(800 * sim::kMillisecond);
        // Fail the busiest server: the worst single loss.
        int victim = 0;
        double worst = -1.0;
        for (int s = 0; s < servers; ++s) {
          double load = 0.0;
          for (int c = 0; c < config.num_cells; ++c)
            if (d.controller().server_of(c) == s)
              load += d.controller().estimated_demand(c);
          if (load > worst) {
            worst = load;
            victim = s;
          }
        }
        d.fail_server_at(d.now(), victim);
        d.run_for(1700 * sim::kMillisecond);
        const auto k = d.kpis();
        telemetry::registry().merge(d.metrics().snapshot());
        row.cell(k.failover_outage_cells)
            .cell(static_cast<long long>(k.outage_cell_ttis))
            .cell(k.mean_active_servers, 2)
            .cell(k.energy_joules, 1)
            .cell(k.migrations);
      } catch (const pran::ContractViolation&) {
        // Survivable placement is infeasible on this fleet: the placer
        // refuses to run knife-edge instead of pretending.
        row.cell("refused").cell("-").cell("-").cell("-").cell("-");
      }
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: survivable mode spends more active servers/energy, "
      "eliminates single-failure outage, and refuses fleets that cannot "
      "support the guarantee\n\n");
}

// ---------------------------------------------------------------- Table C

void run_quarantine_table() {
  std::printf(
      "C: flapping server (6 fail/restore cycles, 300 ms apart), "
      "non-sticky FFD, 4 s runs\n\n");

  Table table({"quarantine", "migrations", "dropped", "outage_cell_ttis",
               "quarantine_events", "miss_ratio"});
  for (const bool quarantine : {false, true}) {
    auto config = base_config();
    config.num_servers = 3;
    config.placer = core::DeploymentConfig::PlacerKind::kFirstFitNoSticky;
    config.controller.quarantine = quarantine;
    core::Deployment d(config);
    d.run_for(200 * sim::kMillisecond);
    const int victim = d.controller().server_of(0);
    const sim::Time base = d.now() + 50 * sim::kMillisecond;
    for (int i = 0; i < 6; ++i) {
      d.fail_server_at(base + i * 300 * sim::kMillisecond, victim);
      d.restore_server_at(
          base + i * 300 * sim::kMillisecond + 100 * sim::kMillisecond,
          victim);
    }
    d.run_for(3800 * sim::kMillisecond);
    const auto k = d.kpis();
    telemetry::registry().merge(d.metrics().snapshot());
    table.row()
        .cell(quarantine ? "on" : "off")
        .cell(k.migrations)
        .cell(static_cast<long long>(k.dropped))
        .cell(static_cast<long long>(k.outage_cell_ttis))
        .cell(k.quarantine_events)
        .cell(k.miss_ratio, 5);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: without quarantine every flap re-places cells onto a "
      "server about to die again; backoff quarantine holds it out and the "
      "churn stops\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("bench_e18_fault_injection",
              "E18: stochastic faults, detection delay, survivability, "
              "flap quarantine");
  flags.add_int("threads", static_cast<long>(ThreadPool::default_threads()),
                "worker threads for the detection sweep");
  flags.add_string("metrics-out", "",
                   "write a telemetry snapshot to this file (.json or .csv)");
  flags.add_string("trace-out", "",
                   "write Chrome trace-event JSON to this file");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage().c_str());
    return 0;
  }
  const auto threads = static_cast<unsigned>(flags.get_int("threads"));

  std::printf("E18: fault injection economics\n\n");
  run_detection_sweep(threads);
  run_survivability_table();
  run_quarantine_table();
  if (!flags.get_string("metrics-out").empty())
    pran::telemetry::write_metrics_file(flags.get_string("metrics-out"));
  if (!flags.get_string("trace-out").empty())
    pran::telemetry::write_chrome_trace_file(flags.get_string("trace-out"));
  return 0;
}
