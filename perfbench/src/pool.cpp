// pool_steady and pool_stressed: the simulator itself, end to end
// (Deployment set-up, run, export) and, in the traced run, re-driven call
// by call through the layers' public functions in Deployment::tick's order.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "core/controller.hpp"
#include "core/deployment.hpp"
#include "core/kpi_export.hpp"
#include "core/pipeline.hpp"
#include "faults/fronthaul.hpp"
#include "fronthaul/codec.hpp"
#include "fronthaul/cpri.hpp"
#include "fronthaul/link.hpp"
#include "harness.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/timeseries.hpp"
#include "workload/traffic.hpp"

namespace perfbench {
namespace {

using pran::json::Value;
namespace core = pran::core;
namespace sim = pran::sim;

constexpr sim::Time kWindow = 100 * sim::kMillisecond;
/// The unit of pool latency: 50 TTIs of the whole pool. Single TTIs (and
/// 10-TTI slices) are not used: their host times cluster by what each
/// happens to carry, and a median between clusters jumps from run to run.
constexpr sim::Time kSlice = 50 * sim::kTti;

core::DeploymentConfig pool_config(bool stressed, std::uint64_t seed) {
  core::DeploymentConfig c;
  c.seed = seed;
  if (!stressed) {
    // Statistical diurnal traffic, sticky first-fit, ideal per-cell
    // fronthaul, no HARQ, no timeline: the plain per-cell-TTI hot path.
    c.num_cells = 256;
    c.num_servers = 64;
    c.placer = core::DeploymentConfig::PlacerKind::kFirstFit;
    return c;
  }
  // Every robustness path on at once, tuned so that each fires within one
  // run while most subframes still complete on time.
  c.num_cells = 64;
  c.num_servers = 16;
  c.server.max_job_parallelism = 4;
  c.epoch = 250 * sim::kMillisecond;
  c.placer = core::DeploymentConfig::PlacerKind::kFirstFitNoSticky;
  c.shared_fronthaul = pran::fronthaul::LinkParams{
      pran::units::BitRate{400e9}, 25 * sim::kMicrosecond};
  c.fronthaul_impairments.loss.p_good_to_bad = 0.002;
  c.fronthaul_impairments.loss.p_bad_to_good = 0.3;
  c.fronthaul_impairments.loss.loss_bad = 0.5;
  c.fronthaul_impairments.jitter.max_jitter = 50 * sim::kMicrosecond;
  c.fronthaul_impairments.brownout.mtbb_seconds = 2.0;
  c.fronthaul_impairments.brownout.mean_duration_seconds = 0.2;
  c.fronthaul_impairments.brownout.capacity_factor = 0.5;
  c.harq_retransmissions = true;
  c.degradation.enabled = true;
  c.degradation.compression_ladder = {1.5, 2.0};
  c.degradation.effort_ladder = {6, 4};
  c.degradation.up_epochs = 1;
  c.degradation.down_epochs = 4;
  c.degradation.queue_delay_up_us = 1000.0;
  c.degradation.queue_delay_down_us = 700.0;
  c.degradation.loss_up = 0.2;
  c.degradation.loss_down = 0.05;
  c.overload.enabled = true;
  c.migration.enabled = true;
  c.migration.control_plane.loss_probability = 0.05;
  c.migration.control_plane.max_jitter = 200 * sim::kMicrosecond;
  c.stochastic_faults.mtbf_seconds = 8.0;
  c.stochastic_faults.mttr_seconds = 0.2;
  c.heartbeat_period = 10 * sim::kMillisecond;
  c.timeline.enabled = true;
  c.timeline.window = kWindow;
  return c;
}

/// Simulated length of one repetition. pool_stressed runs longer because
/// its window-boundary log rescans grow with run length.
sim::Time pool_length(bool stressed, bool smoke) {
  if (smoke) return (stressed ? 400 : 100) * sim::kMillisecond;
  return (stressed ? 6000 : 2000) * sim::kMillisecond;
}

// Every DeploymentKpis field except mean_plan_seconds, which is host time.
#define PB_KPI_FIELDS(X)                                                  \
  X(subframes_processed) X(deadline_misses) X(dropped) X(miss_ratio)      \
  X(migrations) X(mean_active_servers) X(failover_outage_cells)           \
  X(infeasible_epochs) X(shed_cell_epochs) X(outage_cell_ttis)            \
  X(harq_retransmissions) X(lost_transport_blocks) X(energy_joules)       \
  X(faults_injected) X(degrade_events) X(fault_detections)                \
  X(mean_detection_latency_ms) X(blind_window_drops) X(quarantine_events) \
  X(fronthaul_lost_bursts) X(fronthaul_late_bursts) X(fronthaul_brownouts) \
  X(shed_subframes) X(compression_tb_failures) X(quarantined_cell_ttis)   \
  X(ladder_rung) X(ladder_transitions) X(compute_outage_jobs)             \
  X(compute_outage_tbs) X(compute_outage_ratio) X(effort_capped_tbs)      \
  X(decode_iterations_needed) X(decode_iterations_realized)               \
  X(offered_tb_bits) X(delivered_tb_bits) X(peak_compute_pressure)        \
  X(migrations_started) X(migrations_committed) X(migrations_aborted)     \
  X(migrations_rolled_back) X(migrations_taken_over) X(migration_retries) \
  X(migrations_deferred) X(migration_deadline_expired)                    \
  X(migration_stale_messages) X(migration_blackout_ttis)                  \
  X(migration_dual_executions) X(mean_handoff_latency_ms)

Value stats_json(const pran::cluster::Executor::Stats& s) {
  Value v = Value::object();
  v.set("completed", Value(static_cast<double>(s.completed)));
  v.set("missed", Value(static_cast<double>(s.missed)));
  v.set("dropped", Value(static_cast<double>(s.dropped)));
  v.set("compute_outages", Value(static_cast<double>(s.compute_outages)));
  v.set("total_busy_seconds", Value(s.total_busy_seconds));
  return v;
}

/// The simulated outcome of a run: every KPI plus the executor's stats.
Value fingerprint(const core::DeploymentKpis& k,
                  const pran::cluster::Executor::Stats& s) {
  Value kpis = Value::object();
#define PB_SET(f) kpis.set(#f, Value(static_cast<double>(k.f)));
  PB_KPI_FIELDS(PB_SET)
#undef PB_SET
  Value fp = Value::object();
  fp.set("kpis", std::move(kpis));
  fp.set("stats", stats_json(s));
  return fp;
}

Value fingerprint(const core::Deployment& d) {
  return fingerprint(d.kpis(), d.executor().stats());
}

/// One untraced repetition: set-up, run in slices, export.
struct Rep {
  std::unique_ptr<core::Deployment> dep;
  double setup_s = 0.0;
  double run_s = 0.0;
  double export_s = 0.0;
  std::size_t export_bytes = 0;
  Value fp;
};

Rep run_rep(const core::DeploymentConfig& cfg, sim::Time length,
            pran::Samples& slice_ms) {
  Rep r;
  auto t0 = Clock::now();
  r.dep = std::make_unique<core::Deployment>(cfg);
  r.setup_s = seconds_since(t0);

  const auto t_run = Clock::now();
  for (sim::Time t = kSlice; t <= length; t += kSlice) {
    const auto t_slice = Clock::now();
    r.dep->run_until(t);
    slice_ms.add(seconds_since(t_slice) * 1e3);
  }
  r.run_s = seconds_since(t_run);

  t0 = Clock::now();
  const core::DeploymentKpis kpis = r.dep->kpis();
  core::export_deployment(*r.dep, pran::telemetry::registry());
  r.export_bytes = pran::telemetry::registry().snapshot().to_json().size();
  r.export_s = seconds_since(t0);
  r.fp = fingerprint(kpis, r.dep->executor().stats());
  return r;
}

/// What the traced replay counted and measured.
struct ReplayOut {
  pran::cluster::Executor::Stats stats;
  std::uint64_t events = 0;
  std::uint64_t jobs = 0;
  std::uint64_t cell_ttis = 0;
  std::uint64_t allocs = 0;
  std::uint64_t cost_mismatches = 0;
};

/// Re-drives the deployment's seeded inputs through the layers' public
/// functions in Deployment::tick's order, one span per call. For a
/// configuration without fronthaul, HARQ, ladder, overload, migration,
/// faults or timeline the replay is complete: its executor must end with
/// the deployment's stats. A configuration with a shared fronthaul and a
/// timeline also gets the link (impairment hook included) and a
/// TimeSeriesRecorder sampled per window, but not the robustness paths.
ReplayOut replay(const core::DeploymentConfig& cfg, sim::Time length,
                 Tracer& tr) {
  const auto n_tti = tr.name("bench.tti");
  const auto n_complete = tr.name("bench.on_complete");
  const auto n_fleet = tr.name("workload.make_fleet");
  const auto n_expected = tr.name("workload.expected_gops");
  const auto n_sample = tr.name("workload.sample_subframe");
  const auto n_job = tr.name("lte.uplink_job");
  const auto n_cost = tr.name("lte.subframe_cost");
  const auto n_extra = tr.name("core.pipeline_extra_gops");
  const auto n_observe = tr.name("core.observe");
  const auto n_replan = tr.name("core.replan");
  const auto n_ctor = tr.name("core.controller_ctor");
  const auto n_submit = tr.name("cluster.submit");
  const auto n_run = tr.name("sim.run_until");
  const auto n_enqueue = tr.name("fronthaul.enqueue_burst");
  const auto n_apply = tr.name("faults.impairment_apply");
  const auto n_timeline = tr.name("telemetry.timeline_sample");

  // Each TTI is one root span, so its calls share that root as their id;
  // set-up calls are roots of their own.
  ReplayOut out;
  sim::Engine engine;
  pran::workload::Fleet fleet;
  {
    Tracer::Scope s(tr, n_fleet);
    fleet = pran::workload::make_fleet(cfg.num_cells, cfg.seed,
                                       pran::lte::CellConfig{},
                                       cfg.peak_prb_utilization);
  }
  auto& cells = fleet.cells;
  const sim::Time fh_latency = cfg.shared_fronthaul
                                   ? cfg.shared_fronthaul->propagation
                                   : cfg.fronthaul_latency;
  std::vector<pran::lte::SubframeFactory> factories;
  factories.reserve(cells.size());
  for (const auto& cell : cells)
    factories.emplace_back(cell.site().cell_id, cell.site().config,
                           pran::lte::CostModel{}, fh_latency);

  std::vector<pran::cluster::ServerSpec> specs;
  for (int s = 0; s < cfg.num_servers; ++s) {
    pran::cluster::ServerSpec spec = cfg.server;
    spec.name = "server-" + std::to_string(s);
    specs.push_back(spec);
  }
  pran::cluster::Executor executor(engine, specs, cfg.policy);
  executor.set_completion_callback(
      [&](const pran::cluster::JobOutcome&) { Tracer::Scope s(tr, n_complete); });
  const core::Pipeline pipeline = core::Pipeline::standard_uplink();

  std::vector<core::CellDemand> initial;
  for (const auto& cell : cells) {
    Tracer::Scope s(tr, n_expected);
    core::CellDemand d;
    d.cell_id = cell.site().cell_id;
    d.gops_per_tti = cell.expected_subframe_gops(cfg.start_hour);
    d.peak_subframe_gops = cell.peak_subframe_gops();
    initial.push_back(d);
  }
  std::optional<core::Controller> controller;
  {
    Tracer::Scope s(tr, n_ctor);
    controller.emplace(
        cfg.controller,
        std::make_unique<core::FirstFitPlacer>(
            cfg.placer == core::DeploymentConfig::PlacerKind::kFirstFit),
        specs, std::move(initial));
  }
  {
    Tracer::Scope s(tr, n_replan);
    controller->replan();
  }

  std::optional<pran::fronthaul::FronthaulLink> link;
  std::optional<pran::faults::FronthaulImpairments> impairments;
  pran::units::Bits burst_bits{0};
  std::optional<pran::telemetry::TimeSeriesRecorder> recorder;
  if (cfg.shared_fronthaul) {
    link.emplace(*cfg.shared_fronthaul);
    link->set_late_threshold(cfg.fronthaul_late_threshold);
    burst_bits = pran::fronthaul::subframe_bits(
        pran::units::Hertz{30.72e6}, pran::fronthaul::kCpriSampleBits,
        pran::lte::CellConfig{}.antennas, cfg.fronthaul_compression);
    if (cfg.fronthaul_impairments.enabled()) {
      impairments.emplace(cfg.fronthaul_impairments,
                          cfg.seed * 0x9E3779B9u + 0xF0);
      link->set_impairment_hook(
          [&](sim::Time ready, pran::units::Bits bits) {
            Tracer::Scope s(tr, n_apply);
            return impairments->apply(ready, bits);
          });
    }
  }
  if (cfg.timeline.enabled) {
    pran::telemetry::TimeSeriesRecorder::Config rc;
    rc.window = cfg.timeline.window;
    rc.history = cfg.timeline.history;
    recorder.emplace(pran::telemetry::registry(), rc);
  }

  const std::int64_t last = length / sim::kTti;
  std::vector<pran::lte::Allocation> allocs;
  for (std::int64_t k = 0; k <= last; ++k) {
    Tracer::Scope tti(tr, n_tti);
    const sim::Time now = k * sim::kTti;
    {
      Tracer::Scope s(tr, n_run);
      engine.run_until(now);
    }
    if (k > 0 && now % cfg.epoch == 0) {
      Tracer::Scope s(tr, n_replan);
      controller->replan();
    }
    if (recorder && k > 0 && now % cfg.timeline.window == 0) {
      Tracer::Scope s(tr, n_timeline);
      recorder->sample(now);
    }
    const double hour =
        cfg.start_hour + sim::to_seconds(now) * cfg.day_compression / 3600.0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const int cell = static_cast<int>(c);
      {
        Tracer::Scope s(tr, n_sample);
        allocs = cells[c].sample_subframe(hour);
      }
      out.allocs += allocs.size();
      ++out.cell_ttis;
      pran::lte::SubframeJob job;
      {
        Tracer::Scope s(tr, n_job);
        job = factories[c].uplink_job(k, allocs);
      }
      double cost = 0.0;
      {
        Tracer::Scope s(tr, n_cost);
        cost = factories[c]
                   .model()
                   .subframe_cost(factories[c].config(), allocs,
                                  pran::lte::Direction::kUplink)
                   .total();
      }
      if (cost != job.cost.total()) ++out.cost_mismatches;
      {
        Tracer::Scope s(tr, n_extra);
        job.extra_gops = pipeline.extra_gops(cells[c].site().config, allocs,
                                             job.cost.total());
      }
      const int server = controller->server_of(cell);
      bool lost = false;
      if (link) {
        Tracer::Scope s(tr, n_enqueue);
        const pran::fronthaul::BurstOutcome burst =
            link->enqueue_burst((k + 1) * sim::kTti, burst_bits);
        lost = burst.lost;
        if (!lost) job.release = std::max(job.release, burst.arrival);
      }
      {
        Tracer::Scope s(tr, n_observe);
        controller->observe(cell, job.total_gops());
      }
      if (lost || server < 0) continue;
      Tracer::Scope s(tr, n_submit);
      executor.submit(server, job);
      ++out.jobs;
    }
  }
  {
    Tracer::Scope tti(tr, n_tti);
    Tracer::Scope s(tr, n_run);
    engine.run_until(last * sim::kTti);
  }
  out.stats = executor.stats();
  out.events = engine.executed_events();
  return out;
}

/// Times the end-of-run reads and the export on a finished deployment,
/// each call in its own span under one root. Returns the summed server
/// utilization.
double traced_export(const core::Deployment& dep, Tracer& tr) {
  const auto n_root = tr.name("bench.export");
  const auto n_kpis = tr.name("core.kpis");
  const auto n_stats = tr.name("cluster.stats");
  const auto n_util = tr.name("cluster.utilization");
  const auto n_export = tr.name("core.export_deployment");
  const auto n_snap = tr.name("telemetry.snapshot_json");
  Tracer::Scope root(tr, n_root);
  {
    Tracer::Scope s(tr, n_stats);
    (void)dep.executor().stats();
  }
  double utilization = 0.0;
  {
    Tracer::Scope s(tr, n_util);
    for (int server = 0; server < dep.executor().num_servers(); ++server)
      utilization += dep.executor().utilization(server, dep.now());
  }
  {
    Tracer::Scope s(tr, n_kpis);
    (void)dep.kpis();
  }
  {
    Tracer::Scope s(tr, n_export);
    core::export_deployment(dep, pran::telemetry::registry());
  }
  {
    Tracer::Scope s(tr, n_snap);
    (void)pran::telemetry::registry().snapshot().to_json();
  }
  return utilization;
}

/// pool_stressed's traced pass on the real deployment: run in
/// window-sized chunks and time kpis() and stats() at every boundary, as
/// the timeline and the ladder read them. Returns the fingerprint.
Value traced_windows(const core::DeploymentConfig& cfg, sim::Time length,
                     Tracer& tr) {
  const auto n_kpis = tr.name("core.kpis");
  const auto n_stats = tr.name("cluster.stats");
  core::Deployment dep(cfg);
  for (sim::Time t = kWindow; t <= length; t += kWindow) {
    dep.run_until(t);
    {
      Tracer::Scope s(tr, n_kpis);
      (void)dep.kpis();
    }
    Tracer::Scope s(tr, n_stats);
    (void)dep.executor().stats();
  }
  if (dep.now() < length) dep.run_until(length);
  return fingerprint(dep);
}

double per_call(const std::map<std::string, Tracer::NameTotals>& t,
                const std::string& name, double scale) {
  const auto it = t.find(name);
  if (it == t.end() || it->second.count == 0) return 0.0;
  return it->second.total_s / static_cast<double>(it->second.count) * scale;
}

double snapshot_series() {
  const auto snap = pran::telemetry::registry().snapshot();
  return static_cast<double>(snap.counters.size() + snap.gauges.size() +
                             snap.histograms.size());
}

}  // namespace

Result run_pool(const Args& args) {
  const bool stressed = args.workload == "pool_stressed";
  const core::DeploymentConfig cfg = pool_config(stressed, args.seed);
  const sim::Time length = pool_length(stressed, args.smoke);
  const std::uint64_t cell_ttis_per_rep =
      static_cast<std::uint64_t>(cfg.num_cells) *
      static_cast<std::uint64_t>(length / sim::kTti + 1);
  const Value ref = load_reference(args.refs, args.seed);

  Result r;
  pran::Samples setups, slice_ms;
  double busy_s = 0.0;
  std::uint64_t busy_cell_ttis = 0;
  Value first_fp;
  int reps = 0;
  std::string error;
  // Checks one repetition's fingerprint; a mismatch fails all its
  // cell-TTIs.
  auto check = [&](const Value& fp) {
    bool ok = true;
    if (first_fp.is_null()) first_fp = fp;
    else if (!same_json(fp, first_fp)) ok = false;
    if (!ref.is_null() && !same_json(fp, ref)) ok = false;
    if (fp.at("kpis").at("migration_dual_executions").as_number() != 0.0)
      ok = false;
    if (!ok) r.failed += cell_ttis_per_rep;
  };

  const auto t_start = Clock::now();
  Rep kept;
  do {
    r.attempted += cell_ttis_per_rep;
    try {
      Rep rep = run_rep(cfg, length, slice_ms);
      setups.add(rep.setup_s);
      busy_s += rep.run_s + rep.export_s;
      busy_cell_ttis += cell_ttis_per_rep;
      check(rep.fp);
      // Only the traced run keeps its deployment: a kept one would sit in
      // memory through the next repetition and double the peak RSS.
      if (args.trace) kept = std::move(rep);
    } catch (const std::exception& e) {
      r.failed += cell_ttis_per_rep;
      error = e.what();
    }
    ++reps;
  } while (!args.trace && seconds_since(t_start) < args.seconds);
  // Set-up is sampled at least five times so its median is not one draw.
  while (setups.count() < 5) {
    const auto t0 = Clock::now();
    core::Deployment extra(cfg);
    setups.add(seconds_since(t0));
  }
  if (!args.record.empty()) write_fingerprint(args.record, first_fp);

  r.metrics["setup_s"] = median(setups);
  // A ratio of totals, not a median over repetitions: the host's slow and
  // fast spells then weigh in by how long they lasted.
  r.metrics["ops_per_s"] =
      busy_s > 0.0 ? static_cast<double>(busy_cell_ttis) / busy_s : 0.0;
  r.metrics["op_ms_p50"] = median(slice_ms);
  double q = 0.0;
  r.metrics["op_ms_p95"] = tail(slice_ms, &q);
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  r.detail.set("reps", Value(reps));
  r.detail.set("simulated_s", Value(sim::to_seconds(length)));
  r.detail.set("op", Value("50-TTI slice of the whole pool (p50/p95); "
                           "cell-TTI (ops_per_s)"));
  r.detail.set("op_samples", Value(static_cast<int>(slice_ms.count())));
  r.detail.set("op_ms_p95_quantile", Value(q));
  r.detail.set("setup_samples", Value(static_cast<int>(setups.count())));
  r.detail.set("reference", Value(ref.is_null() ? "none: internal checks only"
                                                : "matched per repetition"));
  if (!error.empty()) r.detail.set("error", Value(error));
  if (!kept.dep || !args.trace) return r;

  // Traced run: per-layer split of the same seeded inputs.
  const double untraced_s = kept.setup_s + kept.run_s + kept.export_s;
  const auto& spans_ring = pran::telemetry::spans();
  r.metrics["telemetry.span_drop_ratio"] =
      spans_ring.recorded() ? static_cast<double>(spans_ring.dropped()) /
                                  static_cast<double>(spans_ring.recorded())
                            : 0.0;
  Tracer tr(true);
  const auto t_traced = Clock::now();
  const ReplayOut rp = replay(cfg, length, tr);
  const double utilization = traced_export(*kept.dep, tr);
  const double traced_s = seconds_since(t_traced);
  // pool_stressed: the real deployment in window chunks with timed reads;
  // outside the traced total (its run_for chunks carry no layer span).
  Value window_fp;
  if (stressed) window_fp = traced_windows(cfg, length, tr);

  const auto& dep = *kept.dep;
  const auto stats = dep.executor().stats();
  const auto kpis = dep.kpis();
  bool replay_ok = rp.cost_mismatches == 0;
  if (!stressed)
    replay_ok = replay_ok && same_json(stats_json(rp.stats), stats_json(stats));
  else
    replay_ok = replay_ok && same_json(window_fp, kept.fp);
  if (!replay_ok) r.failed += cell_ttis_per_rep;
  r.detail.set("replay_matches", Value(replay_ok));

  const auto t = tr.totals();
  auto& m = r.metrics;
  m["sim.events_per_job"] =
      rp.jobs ? static_cast<double>(rp.events) / static_cast<double>(rp.jobs) : 0.0;
  m["sim.ns_per_event"] =
      rp.events ? t.at("sim.run_until").self_s / static_cast<double>(rp.events) * 1e9
                : 0.0;
  m["cluster.submit_ns"] = per_call(t, "cluster.submit", 1e9);
  m["cluster.stats_us"] = per_call(t, "cluster.stats", 1e6);
  m["cluster.utilization_ms"] = per_call(t, "cluster.utilization", 1e3);
  m["cluster.outcome_bytes_per_job"] =
      static_cast<double>(dep.executor().outcomes().capacity() *
                          sizeof(pran::cluster::JobOutcome)) /
      static_cast<double>(std::max<std::uint64_t>(1, dep.executor().outcomes().size()));
  m["cluster.jobs"] = static_cast<double>(dep.executor().outcomes().size());
  m["cluster.missed"] = static_cast<double>(stats.missed);
  m["cluster.dropped"] = static_cast<double>(stats.dropped);
  m["cluster.compute_outages"] = static_cast<double>(stats.compute_outages);
  m["workload.sample_ns"] = per_call(t, "workload.sample_subframe", 1e9);
  m["workload.allocs_per_cell_tti"] =
      static_cast<double>(rp.allocs) / static_cast<double>(rp.cell_ttis);
  m["lte.uplink_job_ns"] = per_call(t, "lte.uplink_job", 1e9);
  m["lte.subframe_cost_ns"] = per_call(t, "lte.subframe_cost", 1e9);
  m["core.pipeline_extra_gops_ns"] = per_call(t, "core.pipeline_extra_gops", 1e9);
  m["core.observe_ns"] = per_call(t, "core.observe", 1e9);
  m["core.replan_us"] = per_call(t, "core.replan", 1e6);
  m["core.kpis_us"] = per_call(t, "core.kpis", 1e6);
  m["core.export_ms"] = per_call(t, "core.export_deployment", 1e3);
  m["core.migrations_committed"] = static_cast<double>(kpis.migrations_committed);
  m["core.harq_retransmissions"] = static_cast<double>(kpis.harq_retransmissions);
  m["core.compute_outage_jobs"] = static_cast<double>(kpis.compute_outage_jobs);
  m["fronthaul.enqueue_ns"] = per_call(t, "fronthaul.enqueue_burst", 1e9);
  m["fronthaul.bursts_lost"] = static_cast<double>(kpis.fronthaul_lost_bursts);
  m["fronthaul.bursts_late"] = static_cast<double>(kpis.fronthaul_late_bursts);
  m["faults.impairment_apply_ns"] = per_call(t, "faults.impairment_apply", 1e9);
  m["telemetry.snapshot_ms"] = per_call(t, "telemetry.snapshot_json", 1e3);
  m["telemetry.timeline_sample_us"] = per_call(t, "telemetry.timeline_sample", 1e6);
  m["telemetry.series"] = snapshot_series();

  // Self-time split over the traced total (the root spans), the part no
  // layer span covers, and the tracing overhead against the untraced pass.
  const double roots = tr.root_seconds();
  for (const auto& [layer, self] : tr.layer_self_seconds()) {
    if (layer == "bench") m["bench.uncovered_share"] = self / roots;
    else m[layer + ".self_share"] = self / roots;
  }
  m["bench.trace_overhead_share"] = (traced_s - untraced_s) / untraced_s;
  r.detail.set("traced_s", Value(traced_s));
  r.detail.set("untraced_s", Value(untraced_s));
  r.detail.set("spans", Value(static_cast<double>(tr.span_count())));
  r.detail.set("utilization_sum", Value(utilization));
  if (!args.trace_out.empty()) tr.write(args.trace_out);
  return r;
}

int selftest_pool() {
  int failures = 0;
  for (const bool stressed : {false, true}) {
    const auto cfg = pool_config(stressed, 7);
    const sim::Time length = (stressed ? 2000 : 300) * sim::kMillisecond;
    const char* name = stressed ? "pool_stressed" : "pool_steady";

    core::Deployment single(cfg);
    single.run_for(length);
    const Value fp_single = fingerprint(single);

    core::Deployment per_tti(cfg);
    for (sim::Time t = sim::kTti; t <= length; t += sim::kTti)
      per_tti.run_until(t);

    Tracer tr(true);
    bool ok = same_json(fp_single, fingerprint(per_tti)) &&
              same_json(fp_single, traced_windows(cfg, length, tr));
    if (!stressed) {
      const ReplayOut rp = replay(cfg, length, tr);
      ok = ok && rp.cost_mismatches == 0 &&
           same_json(stats_json(rp.stats),
                     stats_json(single.executor().stats()));
    }
    std::printf("selftest %s: single == per-TTI == per-window%s: %s\n", name,
                stressed ? "" : " == traced replay", ok ? "ok" : "MISMATCH");
    if (!ok) ++failures;
  }
  return failures;
}

}  // namespace perfbench
