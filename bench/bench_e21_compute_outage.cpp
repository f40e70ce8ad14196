// E21 — Compute-aware overload control: the throughput-vs-compute
// frontier and computational outage.
//
// The complexity-rate analysis behind pooled base-band processing says
// decoder effort is a schedulable resource: most turbo blocks converge
// early, so iteration budget — not peak GOPS — is the real currency of
// the pool. This experiment measures what the overload subsystem buys
// when offered PHY work exceeds the pool:
//
//  (a) compute-brownout severity sweep: every server slowed to a factor
//      of nominal speed for a 600 ms window, overload loop off vs on.
//      The off rows ride the backlog into a HARQ-fed deadline-miss
//      storm; the on rows clamp per-TB decode effort (backpressure) and
//      abandon deadline-infeasible subframes as computational outages —
//      a third outcome, distinct from fault drops and deadline misses;
//  (b) the frontier those rows trace: delivered transport-block bits
//      (throughput) against realized turbo iterations (compute spend) —
//      the overload loop moves the deployment along the complexity-rate
//      curve instead of off the deadline cliff;
//  (c) acceptance — the E19 30% fronthaul brownout rerun with the
//      compute rungs (decode-effort caps + MCS cap) and the fast loop
//      armed: deadline misses must stay at or below the compression-only
//      ladder while the computational-outage rate is nonzero and
//      bounded.
//
// All sweeps are deterministic for a fixed seed and invariant in
// --threads (each grid point owns its deployment and result slot).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_guard.hpp"
#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/deployment.hpp"
#include "core/kpi_export.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace pran;

// --- A/B: compute brownouts on a moderately loaded pool. -------------------

core::DeploymentConfig pool_config(bool overload_on) {
  core::DeploymentConfig config;
  config.num_cells = 4;
  config.num_servers = 2;
  config.seed = 21;
  config.epoch = 500 * sim::kMillisecond;
  config.harq_retransmissions = true;
  config.overload.enabled = overload_on;
  return config;
}

/// Slows every server to `factor` of nominal speed for the window —
/// the compute analogue of a fronthaul brownout.
void schedule_compute_brownout(core::Deployment& d, double factor) {
  if (factor >= 1.0) return;
  faults::FaultEvent slow;
  slow.kind = faults::FaultKind::kDegrade;
  slow.at = 500 * sim::kMillisecond;
  slow.duration = 600 * sim::kMillisecond;
  slow.servers = {0, 1};
  slow.degrade_factor = factor;
  d.injector().schedule(slow);
}

struct GridPoint {
  const char* label;
  double factor;  // server speed multiplier during the brownout window
  bool overload;
};

void run_severity_sweep(unsigned threads, sim::Time duration,
                        std::vector<core::DeploymentKpis>& results,
                        std::vector<GridPoint>& grid) {
  std::printf(
      "A: compute-brownout severity grid, 4 cells / 2 servers, HARQ on, "
      "%.0f ms runs, 600 ms brownout window, overload loop "
      "{onset 0.5, full 2.0 TTIs, effort 8 -> 2}\n\n",
      static_cast<double>(duration) / sim::kMillisecond);

  for (const bool overload : {false, true}) {
    grid.push_back({"healthy", 1.0, overload});
    grid.push_back({"slow 2x", 0.5, overload});
    grid.push_back({"slow 3x", 0.33, overload});
    grid.push_back({"slow 5x", 0.2, overload});
    grid.push_back({"slow 10x", 0.1, overload});
  }

  results.assign(grid.size(), {});
  std::vector<telemetry::MetricsSnapshot> metrics(grid.size());
  parallel_for_each(threads, grid.size(), [&](unsigned, std::size_t i) {
    core::Deployment d(pool_config(grid[i].overload));
    schedule_compute_brownout(d, grid[i].factor);
    d.run_for(duration);
    results[i] = d.kpis();
    metrics[i] = d.metrics().snapshot();
  });
  // Merged in grid order, so the exported gauges are --threads invariant.
  for (const auto& m : metrics) telemetry::registry().merge(m);

  Table table({"brownout", "overload", "misses", "miss_ratio", "outages",
               "outage_ratio", "capped_tbs", "iters_real/need",
               "peak_press"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& k = results[i];
    const double effort_ratio =
        k.decode_iterations_needed
            ? static_cast<double>(k.decode_iterations_realized) /
                  static_cast<double>(k.decode_iterations_needed)
            : 1.0;
    table.row()
        .cell(grid[i].label)
        .cell(grid[i].overload ? "on" : "off")
        .cell(static_cast<long long>(k.deadline_misses))
        .cell(k.miss_ratio, 5)
        .cell(static_cast<long long>(k.compute_outage_jobs))
        .cell(k.compute_outage_ratio, 5)
        .cell(static_cast<long long>(k.effort_capped_tbs))
        .cell(effort_ratio, 4)
        .cell(k.peak_compute_pressure, 2);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: the off rows queue until the HARQ storm sustains the miss "
      "ratio long past the window; the on rows spend decode effort first "
      "(capped_tbs, iters_real/need < 1) and abandon only the "
      "deadline-infeasible remainder as computational outages, keeping "
      "misses an order of magnitude lower at every depth\n\n");
}

void run_frontier(const std::vector<core::DeploymentKpis>& results,
                  const std::vector<GridPoint>& grid) {
  std::printf(
      "B: throughput-vs-compute frontier traced by the overload rows\n\n");
  Table table({"brownout", "overload", "offered_Mbit", "delivered_Mbit",
               "goodput", "Giter_spent"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& k = results[i];
    table.row()
        .cell(grid[i].label)
        .cell(grid[i].overload ? "on" : "off")
        .cell(k.offered_tb_bits / 1e6, 2)
        .cell(k.delivered_tb_bits / 1e6, 2)
        .cell(k.offered_tb_bits > 0.0
                  ? k.delivered_tb_bits / k.offered_tb_bits
                  : 0.0,
              4)
        .cell(static_cast<double>(k.decode_iterations_realized) / 1e9, 6);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: each on/off pair at one depth is a point pair on the "
      "complexity-rate plane — same offered bits, but the overload rows "
      "convert fewer iterations into more delivered bits, because work "
      "that cannot make its deadline is abandoned before it burns "
      "compute that feasible subframes needed\n\n");
}

// --- C: the E19 acceptance scenario with the compute rungs armed. ----------

core::DeploymentConfig e19_config(bool compute_rungs) {
  // Mirrors bench_e19's base — 5 cells on a shared 25G fibre at 74%
  // utilisation, a 30% brownout pushes offered load to 1.05x capacity —
  // but on a leaner pool: 2 servers with 4 slower (100 GOPS) cores, vs
  // E19's 4x8 at 150. E19's pool had so much compute headroom that a
  // burst delivered arbitrarily late still decoded with milliseconds to
  // spare; on the lean pool a worst-case subframe at full effort flirts
  // with the 3 ms HARQ budget, so the minutes the wire brownout steals
  // from the deadline actually interact with the compute budget — the
  // regime the compute rungs exist for.
  core::DeploymentConfig config;
  config.num_cells = 5;
  config.num_servers = 2;
  config.server.cores = 4;
  config.server.gops_per_core = 100.0;
  config.seed = 19;
  config.harq_retransmissions = true;
  config.epoch = 10 * sim::kMillisecond;
  config.shared_fronthaul =
      fronthaul::LinkParams{units::BitRate{25e9}, 25 * sim::kMicrosecond};
  config.fronthaul_impairments.brownout.mtbb_seconds = 0.3;
  config.fronthaul_impairments.brownout.mean_duration_seconds = 0.4;
  config.fronthaul_impairments.brownout.capacity_factor = 0.55;
  config.degradation.enabled = true;
  config.degradation.compression_ladder = {1.5, 2.0};
  config.degradation.up_epochs = 1;
  config.degradation.down_epochs = 10;
  config.degradation.queue_delay_up_us = 1000.0;
  config.degradation.queue_delay_down_us = 700.0;
  config.degradation.loss_up = 0.2;
  config.degradation.loss_down = 0.05;
  if (compute_rungs) {
    config.degradation.effort_ladder = {6, 4};
    config.degradation.mcs_cap = 20;
    config.overload.enabled = true;
  }
  return config;
}

int run_acceptance(sim::Time duration, const core::TimelineConfig& timeline) {
  std::printf(
      "C: acceptance — E19 30%% fronthaul brownout, compression-only "
      "ladder vs ladder + compute rungs + overload loop\n\n");
  core::DeploymentKpis kpis[2];
  for (const bool compute_rungs : {false, true}) {
    auto config = e19_config(compute_rungs);
    // The timeline rides on the compute-rung run only: the headline run
    // is the one whose outage budget the SLO engine should be watching.
    if (compute_rungs) config.timeline = timeline;
    core::Deployment d(config);
    d.run_for(duration);
    kpis[compute_rungs ? 1 : 0] = d.kpis();
    // The compute-rung run is the E21 headline: its KPIs (including the
    // kpi.compute_* gauges and per-rung dwell) go into the exported
    // snapshot.
    if (compute_rungs)
      core::export_deployment(d, telemetry::registry());
    else
      telemetry::registry().merge(d.metrics().snapshot());
  }
  const auto& comp = kpis[0];
  const auto& full = kpis[1];
  const bool misses_hold = full.deadline_misses <= comp.deadline_misses;
  const bool outage_bounded = full.compute_outage_ratio > 0.0 &&
                              full.compute_outage_ratio < 0.05;
  Table table({"mode", "misses", "miss_ratio", "outages", "outage_ratio",
               "capped_tbs", "shed", "verdict"});
  table.row()
      .cell("compression-only")
      .cell(static_cast<long long>(comp.deadline_misses))
      .cell(comp.miss_ratio, 5)
      .cell(static_cast<long long>(comp.compute_outage_jobs))
      .cell(comp.compute_outage_ratio, 5)
      .cell(static_cast<long long>(comp.effort_capped_tbs))
      .cell(static_cast<long long>(comp.shed_subframes))
      .cell("E19 baseline");
  table.row()
      .cell("compute rungs")
      .cell(static_cast<long long>(full.deadline_misses))
      .cell(full.miss_ratio, 5)
      .cell(static_cast<long long>(full.compute_outage_jobs))
      .cell(full.compute_outage_ratio, 5)
      .cell(static_cast<long long>(full.effort_capped_tbs))
      .cell(static_cast<long long>(full.shed_subframes))
      .cell(misses_hold && outage_bounded
                ? "holds (misses <= baseline, outage bounded)"
                : "UNEXPECTED");
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: same brownout timeline (same seed, own substreams); the "
      "compute rungs change nothing on the wire, but bursts the brownout "
      "delivers late now face the admission test — subframes that cannot "
      "finish inside the HARQ budget become a small, bounded "
      "computational-outage rate instead of queue poison, so deadline "
      "misses stay at or below the compression-only result\n");
  return misses_hold && outage_bounded ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("bench_e21_compute_outage",
              "E21: compute-aware overload control — adaptive decode "
              "effort, computational outage, backpressure");
  flags.add_int("threads", static_cast<long>(ThreadPool::default_threads()),
                "worker threads for the severity sweep");
  flags.add_int("duration-ms", 3000, "simulated milliseconds per run");
  flags.add_string("metrics-out", "",
                   "write a telemetry snapshot to this file (.json or .csv)");
  flags.add_string("trace-out", "",
                   "write Chrome trace-event JSON to this file");
  flags.add_string("timeline-out", "",
                   "stream per-window KPI samples from the acceptance "
                   "check's compute-rung run as JSONL to this file");
  flags.add_string("postmortem-dir", "",
                   "directory for flight-recorder dumps from the "
                   "acceptance check's compute-rung run");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage().c_str());
    return 0;
  }
  pran::bench::warn_if_not_release();
  const auto threads = static_cast<unsigned>(flags.get_int("threads"));
  const auto duration = flags.get_int("duration-ms") * sim::kMillisecond;

  core::TimelineConfig timeline;
  timeline.timeline_out = flags.get_string("timeline-out");
  timeline.postmortem_dir = flags.get_string("postmortem-dir");
  timeline.enabled =
      !timeline.timeline_out.empty() || !timeline.postmortem_dir.empty();
  timeline.window = 10 * sim::kMillisecond;

  std::printf("E21: compute-aware overload control\n\n");
  std::vector<core::DeploymentKpis> results;
  std::vector<GridPoint> grid;
  run_severity_sweep(threads, duration, results, grid);
  run_frontier(results, grid);
  const int rc = run_acceptance(duration, timeline);
  if (!flags.get_string("metrics-out").empty())
    pran::telemetry::write_metrics_file(flags.get_string("metrics-out"));
  if (!flags.get_string("trace-out").empty())
    pran::telemetry::write_chrome_trace_file(flags.get_string("trace-out"));
  return rc;
}
