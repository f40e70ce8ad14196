// E19 — Fronthaul impairments + the graceful-degradation ladder.
//
// E12 showed the deadline cliff: once serialization on a shared fibre
// eats the ~3 ms HARQ budget, misses go from zero to everything. This
// experiment puts impairments on that fibre — Gilbert–Elliott burst
// loss, bounded jitter, link-rate brownouts — and asks what a
// controller can do about it short of overprovisioning:
//
//  (a) severity sweep: loss-rate and brownout-depth grid, ladder on
//      vs off. A naive deployment rides the queue over the cliff; the
//      ladder spends transport-block quality (compression rungs),
//      then doomed subframes (deadline-aware shedding with honest
//      HARQ settlement), then whole cells (quarantine) to keep the
//      surviving traffic inside the budget;
//  (b) acceptance check: under a 30% brownout the ladder holds the
//      deadline-miss rate under 0.1% while the naive baseline
//      exceeds 1% (E19 acceptance bar);
//  (c) rung economics: what each severity costs at steady state —
//      which rung the ladder settles on, and the quality/shed/
//      quarantine price actually paid.
//
// All sweeps are deterministic for a fixed seed and invariant in
// --threads (each grid point owns its deployment and result slot).

#include <cstdio>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/deployment.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace pran;

// 5 cells * 3.69 Mbit/ms on a 25G shared fibre = 74% utilisation:
// healthy with ~0.6 ms of burst-train queueing, but with no headroom
// to spare — a 30% brownout pushes offered load to 1.05x capacity.
core::DeploymentConfig base_config(bool ladder_on) {
  core::DeploymentConfig config;
  config.num_cells = 5;
  config.num_servers = 4;
  config.seed = 19;
  config.harq_retransmissions = true;
  config.epoch = 10 * sim::kMillisecond;
  config.shared_fronthaul =
      fronthaul::LinkParams{units::BitRate{25e9}, 25 * sim::kMicrosecond};
  config.degradation.enabled = ladder_on;
  config.degradation.compression_ladder = {1.5, 2.0};
  config.degradation.up_epochs = 1;
  config.degradation.down_epochs = 10;
  // Above the ~0.6 ms healthy burst-train steady state, below the
  // point where one more epoch of brownout growth eats the HARQ budget.
  config.degradation.queue_delay_up_us = 1000.0;
  config.degradation.queue_delay_down_us = 700.0;
  // Burst loss is HARQ debt, not congestion — no rung can lower a
  // Gilbert–Elliott loss rate, so the loss trigger is reserved for
  // genuinely failing links. The per-epoch windows are ~50 bursts, so a
  // single Bad-state excursion spikes the windowed rate far above the
  // stationary mean: thresholds must clear the excursion noise, not the
  // mean.
  config.degradation.loss_up = 0.2;
  config.degradation.loss_down = 0.05;
  return config;
}

// Gilbert–Elliott p(good->bad) for a target stationary loss rate, with
// the bench's fixed recovery rate and bad-state loss probability.
double ge_p_g2b(double mean_loss) {
  // mean = loss_bad * p / (p + p_b2g)  =>  p = mean * p_b2g / (loss_bad - mean)
  const double p_b2g = 0.3, loss_bad = 0.5;
  return mean_loss * p_b2g / (loss_bad - mean_loss);
}

struct GridPoint {
  const char* label;
  double mean_loss;      // target GE stationary loss rate (0 = off)
  double brown_factor;   // brownout capacity factor (1 = off)
  bool ladder;
};

void run_severity_sweep(unsigned threads, sim::Time duration) {
  std::printf(
      "A: severity grid, 5 cells / 4 servers on a shared 25G fibre, HARQ "
      "on, %.0f ms runs, ladder {1.5, 2.0} + shed + quarantine\n\n",
      static_cast<double>(duration) / sim::kMillisecond);

  std::vector<GridPoint> grid;
  for (const bool ladder : {false, true}) {
    grid.push_back({"clean", 0.0, 1.0, ladder});
    grid.push_back({"loss 1%", 0.01, 1.0, ladder});
    grid.push_back({"loss 3%", 0.03, 1.0, ladder});
    grid.push_back({"brownout 30%", 0.0, 0.7, ladder});
    grid.push_back({"brownout 50%", 0.0, 0.5, ladder});
    grid.push_back({"loss 1% + brownout 30%", 0.01, 0.7, ladder});
  }

  std::vector<core::DeploymentKpis> results(grid.size());
  std::vector<telemetry::MetricsSnapshot> metrics(grid.size());
  parallel_for_each(threads, grid.size(), [&](unsigned, std::size_t i) {
    auto config = base_config(grid[i].ladder);
    if (grid[i].mean_loss > 0.0) {
      config.fronthaul_impairments.loss.p_good_to_bad =
          ge_p_g2b(grid[i].mean_loss);
      config.fronthaul_impairments.loss.p_bad_to_good = 0.3;
      config.fronthaul_impairments.loss.loss_bad = 0.5;
      config.fronthaul_impairments.jitter.max_jitter =
          50 * sim::kMicrosecond;
    }
    if (grid[i].brown_factor < 1.0) {
      config.fronthaul_impairments.brownout.mtbb_seconds = 0.3;
      config.fronthaul_impairments.brownout.mean_duration_seconds = 0.4;
      config.fronthaul_impairments.brownout.capacity_factor =
          grid[i].brown_factor;
    }
    core::Deployment d(config);
    d.run_for(duration);
    results[i] = d.kpis();
    metrics[i] = d.metrics().snapshot();
  });
  // Merged in grid order, so the exported gauges are --threads invariant.
  for (const auto& m : metrics) telemetry::registry().merge(m);

  Table table({"impairment", "ladder", "lost", "late", "brownouts", "shed",
               "tb_fail", "quar_ttis", "trans", "rung", "miss_ratio"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& k = results[i];
    table.row()
        .cell(grid[i].label)
        .cell(grid[i].ladder ? "on" : "off")
        .cell(static_cast<long long>(k.fronthaul_lost_bursts))
        .cell(static_cast<long long>(k.fronthaul_late_bursts))
        .cell(static_cast<long long>(k.fronthaul_brownouts))
        .cell(static_cast<long long>(k.shed_subframes))
        .cell(static_cast<long long>(k.compression_tb_failures))
        .cell(static_cast<long long>(k.quarantined_cell_ttis))
        .cell(static_cast<long long>(k.ladder_transitions))
        .cell(k.ladder_rung)
        .cell(k.miss_ratio, 5);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: brownouts are the killer — the naive rows ride the queue "
      "over the E12 cliff (miss_ratio -> 1, sustained by the HARQ "
      "retransmission storm) while the ladder rows trade compression "
      "quality, shed subframes and, at 50%%, a transiently quarantined "
      "cell for a miss ratio 30x lower; burst loss alone costs HARQ debt "
      "but not the deadline budget, and the loss trigger sits above the "
      "windowed excursion noise so it does not escalate for it\n\n");
}

void run_acceptance_check(sim::Time duration,
                          const core::TimelineConfig& timeline) {
  std::printf("B: acceptance — 30%% brownout, ladder vs naive baseline\n\n");
  core::DeploymentKpis kpis[2];
  for (const bool ladder : {false, true}) {
    auto config = base_config(ladder);
    config.fronthaul_impairments.brownout.mtbb_seconds = 0.3;
    config.fronthaul_impairments.brownout.mean_duration_seconds = 0.4;
    config.fronthaul_impairments.brownout.capacity_factor = 0.7;
    // Timeline + SLO burn alerts ride on the ladder run only: it is the
    // one whose brownout response the flight recorder is meant to
    // capture.
    if (ladder) config.timeline = timeline;
    core::Deployment d(config);
    d.run_for(duration);
    kpis[ladder ? 1 : 0] = d.kpis();
    telemetry::registry().merge(d.metrics().snapshot());
  }
  Table table({"mode", "subframes", "misses", "miss_ratio", "verdict"});
  const double naive = kpis[0].miss_ratio, degraded = kpis[1].miss_ratio;
  table.row()
      .cell("naive")
      .cell(static_cast<long long>(kpis[0].subframes_processed))
      .cell(static_cast<long long>(kpis[0].deadline_misses))
      .cell(naive, 5)
      .cell(naive > 0.01 ? "collapses (> 1%)" : "UNEXPECTED: survived");
  table.row()
      .cell("ladder")
      .cell(static_cast<long long>(kpis[1].subframes_processed))
      .cell(static_cast<long long>(kpis[1].deadline_misses))
      .cell(degraded, 5)
      .cell(degraded < 0.001 ? "holds (< 0.1%)" : "UNEXPECTED: misses");
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "reading: same brownout timeline (same seed, own RNG substreams); "
      "the ladder's compression rung restores fibre headroom within an "
      "epoch of onset and steps back down after the configured hold\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("bench_e19_fronthaul_degradation",
              "E19: fronthaul impairments and the graceful-degradation "
              "ladder");
  flags.add_int("threads", static_cast<long>(ThreadPool::default_threads()),
                "worker threads for the severity sweep");
  flags.add_int("duration-ms", 3000, "simulated milliseconds per run");
  flags.add_string("metrics-out", "",
                   "write a telemetry snapshot to this file (.json or .csv)");
  flags.add_string("trace-out", "",
                   "write Chrome trace-event JSON to this file");
  flags.add_string("timeline-out", "",
                   "stream per-window KPI samples from the acceptance "
                   "check's ladder run as JSONL to this file");
  flags.add_string("postmortem-dir", "",
                   "directory for flight-recorder dumps from the "
                   "acceptance check's ladder run");
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
  const auto duration = flags.get_int("duration-ms") * sim::kMillisecond;

  pran::core::TimelineConfig timeline;
  timeline.timeline_out = flags.get_string("timeline-out");
  timeline.postmortem_dir = flags.get_string("postmortem-dir");
  timeline.enabled =
      !timeline.timeline_out.empty() || !timeline.postmortem_dir.empty();
  timeline.window = 10 * pran::sim::kMillisecond;

  std::printf("E19: fronthaul impairments + graceful degradation\n\n");
  run_severity_sweep(threads, duration);
  run_acceptance_check(duration, timeline);
  if (!flags.get_string("metrics-out").empty())
    pran::telemetry::write_metrics_file(flags.get_string("metrics-out"));
  if (!flags.get_string("trace-out").empty())
    pran::telemetry::write_chrome_trace_file(flags.get_string("trace-out"));
  return 0;
}
