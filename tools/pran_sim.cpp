// pran_sim — run a PRAN deployment from the command line and report KPIs.
//
//   $ pran_sim --cells 12 --servers 6 --placer milp --seconds 5
//   $ pran_sim --cells 8 --fronthaul-gbps 10 --compression 3 --format csv
//   $ pran_sim --cells 8 --replicas 16 --threads 4   # multi-seed sweep
//
// With --replicas N > 1 the tool runs N independent deployments whose
// seeds are derived from --seed via RNG substreams, fanned across a
// thread pool (--threads), and reports one KPI row per replicate plus
// mean/min/max — the quick answer to "is this configuration's result
// seed-luck?". Replicate rows are identical for any thread count.
//
// The exit code is 0 when every run completed with zero deadline misses
// and no outages, 1 otherwise — handy in scripts.

#include <cstdio>
#include <exception>
#include <vector>

#include "common/flags.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/deployment.hpp"
#include "core/kpi_export.hpp"
#include "telemetry/telemetry.hpp"

int main(int argc, char** argv) {
  using namespace pran;

  Flags flags("pran_sim", "run a PRAN deployment and report KPIs");
  flags.add_int("cells", 8, "number of cells");
  flags.add_int("servers", 4, "number of servers");
  flags.add_int("cores", 8, "cores per server");
  flags.add_double("gops", 150.0, "GOPS per core");
  flags.add_string("placer", "ffd",
                   "placement policy: ffd | ffd-repack | milp | static");
  flags.add_string("sched", "edf", "executor policy: edf | fifo");
  flags.add_double("seconds", 2.0, "simulated seconds to run");
  flags.add_double("start-hour", 8.0, "diurnal hour at t=0");
  flags.add_double("compression-of-time", 3600.0,
                   "diurnal hours advanced per simulated hour");
  flags.add_double("peak-util", 0.85, "peak PRB utilisation per cell");
  flags.add_double("headroom", 0.8, "server utilisation ceiling");
  flags.add_double("forecast-hours", 0.0, "demand forecast horizon");
  flags.add_bool("shed", false, "enable admission control");
  flags.add_bool("harq", false, "model HARQ retransmissions");
  flags.add_double("fronthaul-gbps", 0.0,
                   "shared fronthaul link rate (0 = ideal per-cell links)");
  flags.add_double("compression", 1.0, "fronthaul I/Q compression ratio");
  flags.add_int("fail-server", -1, "fail this server halfway through");
  flags.add_int("seed", 42, "random seed");
  flags.add_int("replicas", 1, "independent seed replicates to run");
  flags.add_int("threads", 1, "worker threads for --replicas > 1");
  flags.add_string("format", "text", "output: text | csv");
  flags.add_string("metrics-out", "",
                   "write a telemetry snapshot (KPIs, counters, span "
                   "histograms) to this file (.json or .csv)");
  flags.add_string("trace-out", "",
                   "write Chrome trace-event JSON to this file (open in "
                   "Perfetto or chrome://tracing)");
  flags.add_string("timeline-out", "",
                   "stream per-window KPI samples as JSONL to this file "
                   "(single-replica runs only)");
  flags.add_double("timeline-window-ms", 100.0,
                   "timeline sampling window in simulated milliseconds");
  flags.add_string("postmortem-dir", "",
                   "directory for anomaly flight-recorder dumps (written "
                   "when an SLO trips, a quarantine fires, or the run "
                   "aborts; single-replica runs only)");

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage().c_str());
    return 0;
  }

  core::DeploymentConfig config;
  config.num_cells = static_cast<int>(flags.get_int("cells"));
  config.num_servers = static_cast<int>(flags.get_int("servers"));
  config.server.cores = static_cast<int>(flags.get_int("cores"));
  config.server.gops_per_core = flags.get_double("gops");
  config.start_hour = flags.get_double("start-hour");
  config.day_compression = flags.get_double("compression-of-time");
  config.peak_prb_utilization = flags.get_double("peak-util");
  config.forecast_horizon_hours = flags.get_double("forecast-hours");
  config.harq_retransmissions = flags.get_bool("harq");
  config.controller.headroom = flags.get_double("headroom");
  config.controller.shed_on_infeasible = flags.get_bool("shed");
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  const std::string placer = flags.get_string("placer");
  if (placer == "ffd")
    config.placer = core::DeploymentConfig::PlacerKind::kFirstFit;
  else if (placer == "ffd-repack")
    config.placer = core::DeploymentConfig::PlacerKind::kFirstFitNoSticky;
  else if (placer == "milp")
    config.placer = core::DeploymentConfig::PlacerKind::kMilp;
  else if (placer == "static")
    config.placer = core::DeploymentConfig::PlacerKind::kStaticPeak;
  else {
    std::fprintf(stderr, "unknown placer '%s'\n", placer.c_str());
    return 2;
  }
  const std::string sched = flags.get_string("sched");
  if (sched == "edf")
    config.policy = cluster::SchedPolicy::kEdf;
  else if (sched == "fifo")
    config.policy = cluster::SchedPolicy::kFifo;
  else {
    std::fprintf(stderr, "unknown scheduler '%s'\n", sched.c_str());
    return 2;
  }
  if (flags.get_double("fronthaul-gbps") > 0.0) {
    config.shared_fronthaul = fronthaul::LinkParams{
        units::BitRate{flags.get_double("fronthaul-gbps") * 1e9},
        25 * sim::kMicrosecond};
    config.fronthaul_compression = flags.get_double("compression");
  }

  const double seconds = flags.get_double("seconds");
  if (seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  const long fail_server = flags.get_int("fail-server");
  if (fail_server >= 0 && fail_server >= config.num_servers) {
    std::fprintf(stderr, "--fail-server out of range\n");
    return 2;
  }
  const long replicas = flags.get_int("replicas");
  if (replicas < 1) {
    std::fprintf(stderr, "--replicas must be >= 1\n");
    return 2;
  }

  const std::string metrics_out = flags.get_string("metrics-out");
  const std::string trace_out = flags.get_string("trace-out");
  const std::string timeline_out = flags.get_string("timeline-out");
  const std::string postmortem_dir = flags.get_string("postmortem-dir");
  if (replicas > 1 && (!timeline_out.empty() || !postmortem_dir.empty())) {
    // Each replica samples its own registry, but these flags name one
    // output path: replicas would overwrite each other's stream and dumps.
    std::fprintf(stderr,
                 "--timeline-out/--postmortem-dir name one output path, so "
                 "they require --replicas 1\n");
    return 2;
  }
  if (!timeline_out.empty() || !postmortem_dir.empty()) {
    config.timeline.enabled = true;
    config.timeline.timeline_out = timeline_out;
    config.timeline.postmortem_dir = postmortem_dir;
    const double window_ms = flags.get_double("timeline-window-ms");
    if (window_ms < 1.0) {
      std::fprintf(stderr, "--timeline-window-ms must be >= 1\n");
      return 2;
    }
    config.timeline.window = sim::from_seconds(window_ms / 1e3);
  }
  auto write_telemetry = [&] {
    if (!metrics_out.empty())
      telemetry::write_metrics_file(metrics_out);
    if (!trace_out.empty()) telemetry::write_chrome_trace_file(trace_out);
  };

  auto run_once = [&](const core::DeploymentConfig& run_config,
                      telemetry::MetricsSnapshot& metrics) {
    core::Deployment run(run_config);
    if (fail_server >= 0)
      run.fail_server_at(sim::from_seconds(seconds / 2.0),
                         static_cast<int>(fail_server));
    run.run_for(sim::from_seconds(seconds));
    metrics = run.metrics().snapshot();
    return run.kpis();
  };

  if (replicas > 1) {
    // Seeds come from substreams of the base seed, so the set of
    // replicates is a pure function of --seed/--replicas, and each row is
    // computed by whichever worker claims it — same table at any
    // --threads.
    const Rng base(config.seed);
    std::vector<core::DeploymentKpis> kpis_by_replica(
        static_cast<std::size_t>(replicas));
    std::vector<std::uint64_t> seeds(static_cast<std::size_t>(replicas));
    std::vector<telemetry::MetricsSnapshot> metrics(
        static_cast<std::size_t>(replicas));
    parallel_for_each(
        static_cast<unsigned>(flags.get_int("threads")),
        static_cast<std::size_t>(replicas), [&](unsigned, std::size_t i) {
          core::DeploymentConfig run_config = config;
          Rng seeder = base.stream(i);
          run_config.seed = seeder();
          seeds[i] = run_config.seed;
          kpis_by_replica[i] = run_once(run_config, metrics[i]);
        });
    // Merged in replica order, so the snapshot is --threads invariant.
    for (const auto& m : metrics) telemetry::registry().merge(m);

    Table table({"replica", "seed", "miss_ratio", "deadline_misses",
                 "migrations", "mean_active_servers", "outage_cell_ttis",
                 "energy_joules"});
    Samples miss_ratio, active_servers, energy;
    bool all_clean = true;
    for (std::size_t i = 0; i < kpis_by_replica.size(); ++i) {
      const auto& k = kpis_by_replica[i];
      table.row()
          .cell(static_cast<long long>(i))
          .cell(std::to_string(seeds[i]))
          .cell(k.miss_ratio, 6)
          .cell(static_cast<long long>(k.deadline_misses))
          .cell(k.migrations)
          .cell(k.mean_active_servers, 3)
          .cell(static_cast<long long>(k.outage_cell_ttis))
          .cell(k.energy_joules, 1);
      miss_ratio.add(k.miss_ratio);
      active_servers.add(k.mean_active_servers);
      energy.add(k.energy_joules);
      all_clean = all_clean && k.deadline_misses == 0 && k.dropped == 0 &&
                  k.outage_cell_ttis == 0;
    }
    if (flags.get_string("format") == "csv")
      std::printf("%s", table.to_csv().c_str());
    else
      std::printf("%s", table.render().c_str());
    std::printf(
        "replicas=%ld  miss_ratio mean=%.6f [%.6f, %.6f]  "
        "active_servers mean=%.3f  energy mean=%.1f J\n",
        replicas, miss_ratio.mean(), miss_ratio.min(), miss_ratio.max(),
        active_servers.mean(), energy.mean());
    write_telemetry();
    return all_clean ? 0 : 1;
  }

  core::Deployment deployment(config);
  if (fail_server >= 0) {
    deployment.fail_server_at(sim::from_seconds(seconds / 2.0),
                              static_cast<int>(fail_server));
  }
  try {
    deployment.run_for(sim::from_seconds(seconds));
  } catch (const std::exception& e) {
    // Leave a black box behind before propagating the failure.
    const std::string dump = deployment.trigger_postmortem("abort", e.what());
    if (!dump.empty())
      std::fprintf(stderr, "run aborted; post-mortem at %s\n", dump.c_str());
    telemetry::registry().merge(deployment.metrics().snapshot());
    write_telemetry();
    throw;
  }

  const auto kpis = deployment.kpis();
  Table table({"metric", "value"});
  table.row().cell("simulated_seconds").cell(seconds, 3);
  table.row().cell("final_hour").cell(deployment.hour_at(deployment.now()), 2);
  table.row().cell("subframes_processed").cell(
      static_cast<long long>(kpis.subframes_processed));
  table.row().cell("deadline_misses").cell(
      static_cast<long long>(kpis.deadline_misses));
  table.row().cell("miss_ratio").cell(kpis.miss_ratio, 6);
  table.row().cell("dropped_jobs").cell(static_cast<long long>(kpis.dropped));
  table.row().cell("migrations").cell(kpis.migrations);
  table.row().cell("mean_active_servers").cell(kpis.mean_active_servers, 3);
  table.row().cell("mean_plan_seconds").cell(kpis.mean_plan_seconds, 6);
  table.row().cell("infeasible_epochs").cell(kpis.infeasible_epochs);
  table.row().cell("shed_cell_epochs").cell(kpis.shed_cell_epochs);
  table.row().cell("outage_cell_ttis").cell(
      static_cast<long long>(kpis.outage_cell_ttis));
  table.row().cell("failover_outage_cells").cell(kpis.failover_outage_cells);
  table.row().cell("harq_retransmissions").cell(
      static_cast<long long>(kpis.harq_retransmissions));
  table.row().cell("lost_transport_blocks").cell(
      static_cast<long long>(kpis.lost_transport_blocks));
  table.row().cell("energy_joules").cell(kpis.energy_joules, 1);
  if (deployment.fronthaul_link() != nullptr) {
    table.row().cell("fronthaul_utilization").cell(
        deployment.fronthaul_link()->utilization(deployment.now()), 3);
    table.row().cell("fronthaul_max_queue_us").cell(
        sim::to_microseconds(deployment.fronthaul_link()->max_queue_delay()),
        1);
  }

  if (flags.get_string("format") == "csv")
    std::printf("%s", table.to_csv().c_str());
  else
    std::printf("%s", table.render().c_str());

  core::export_deployment(deployment, telemetry::registry());
  write_telemetry();

  const bool clean = kpis.deadline_misses == 0 && kpis.dropped == 0 &&
                     kpis.outage_cell_ttis == 0;
  return clean ? 0 : 1;
}
