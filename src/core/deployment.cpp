#include "core/deployment.hpp"

#include <algorithm>
#include <string_view>

#include "common/check.hpp"
#include "core/kpi_export.hpp"
#include "fronthaul/codec.hpp"
#include "lte/harq.hpp"
#include "telemetry/family.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace pran::core {

namespace {

telemetry::FlightRecorder::JobOutcome flight_outcome(
    const cluster::JobOutcome& o) {
  using Outcome = telemetry::FlightRecorder::JobOutcome;
  if (o.compute_outage) return Outcome::kOutage;
  if (o.dropped) return Outcome::kDropped;
  return o.missed_deadline() ? Outcome::kLate : Outcome::kOnTime;
}

}  // namespace

Deployment::Deployment(DeploymentConfig config)
    : config_(std::move(config)),
      pipeline_(config_.pipeline ? *config_.pipeline
                                 : Pipeline::standard_uplink()) {
  // Per-cell outcome series (`deployment.cell_*{cell=N}`): one relaxed
  // fetch_add per completion on top of the scalar counters, giving the
  // timeline its dimensional deadline-miss trajectories.
  cell_subframes_ = std::make_unique<telemetry::CounterFamily>(
      metrics_, "deployment.cell_subframes", "cell");
  cell_misses_ = std::make_unique<telemetry::CounterFamily>(
      metrics_, "deployment.cell_misses", "cell");
  cell_outages_ = std::make_unique<telemetry::CounterFamily>(
      metrics_, "deployment.cell_outages", "cell");
  PRAN_REQUIRE(config_.num_cells >= 1, "deployment needs cells");
  PRAN_REQUIRE(config_.num_servers >= 1, "deployment needs servers");
  PRAN_REQUIRE(config_.epoch >= sim::kTti, "epoch must be at least one TTI");
  PRAN_REQUIRE(config_.day_compression > 0.0,
               "day compression must be positive");

  // Radio fleet with heterogeneous diurnal profiles.
  auto fleet = workload::make_fleet(config_.num_cells, config_.seed,
                                    lte::CellConfig{},
                                    config_.peak_prb_utilization);
  cells_ = std::move(fleet.cells);

  // With a shared fronthaul the HARQ deadline is set by the propagation
  // delay only (the ACK path); serialisation/queueing delays the *release*
  // instead, via the link model in tick().
  const sim::Time fh_latency = config_.shared_fronthaul
                                   ? config_.shared_fronthaul->propagation
                                   : config_.fronthaul_latency;
  factories_.reserve(cells_.size());
  for (const auto& cell : cells_)
    factories_.emplace_back(cell.site().cell_id, cell.site().config,
                            lte::CostModel{}, fh_latency);

  if (config_.shared_fronthaul) {
    fronthaul_link_.emplace(*config_.shared_fronthaul);
    fronthaul_link_->set_late_threshold(config_.fronthaul_late_threshold);
    fronthaul_bits_per_subframe_ = fronthaul::subframe_bits(
        units::Hertz{30.72e6}, fronthaul::kCpriSampleBits,
        lte::CellConfig{}.antennas, config_.fronthaul_compression);
    if (config_.fronthaul_impairments.enabled()) {
      impairments_.emplace(config_.fronthaul_impairments,
                           config_.seed * 0x9E3779B9u + 0xF0);
      fronthaul_link_->set_impairment_hook(
          [this](sim::Time ready, units::Bits bits) {
            return impairments_->apply(ready, bits);
          });
    }
  } else {
    PRAN_REQUIRE(!config_.fronthaul_impairments.enabled(),
                 "fronthaul impairments require a shared fronthaul link");
  }
  if (config_.degradation.enabled) {
    PRAN_REQUIRE(config_.shared_fronthaul.has_value(),
                 "the degradation ladder watches the shared fronthaul");
    degradation_ = std::make_unique<DegradationController>(
        config_.degradation, config_.num_cells);
    quality_rng_ = Rng(config_.seed).stream(0xDEu);
  }

  // Compute cluster.
  std::vector<cluster::ServerSpec> specs;
  specs.reserve(static_cast<std::size_t>(config_.num_servers));
  for (int s = 0; s < config_.num_servers; ++s) {
    cluster::ServerSpec spec = config_.server;
    spec.name = "server-" + std::to_string(s);
    specs.push_back(spec);
  }
  executor_ =
      std::make_unique<cluster::Executor>(engine_, specs, config_.policy);

  // Controller seeded with the traffic model's expectation at start time.
  std::vector<CellDemand> initial;
  initial.reserve(cells_.size());
  for (const auto& cell : cells_) {
    CellDemand d;
    d.cell_id = cell.site().cell_id;
    d.gops_per_tti = cell.expected_subframe_gops(config_.start_hour);
    d.peak_subframe_gops = cell.peak_subframe_gops();
    initial.push_back(d);
  }
  controller_ = std::make_unique<Controller>(config_.controller, make_placer(),
                                             specs, std::move(initial));

  // Crash-safe migration: epoch repartitions become two-phase handoff
  // plans (the sink), placement flips only at commit (the completion
  // callback), and commit-phase cells with a dead source resolve by lease
  // takeover instead of failover re-packing (the filter).
  if (config_.migration.enabled) {
    migration_ = std::make_unique<MigrationManager>(
        config_.migration, engine_, metrics_, config_.num_cells,
        config_.num_servers, config_.seed * 0x9E3779B9u + 0xCE);
    migration_->set_complete_callback([this](int cell, int server) {
      controller_->complete_migration(cell, server);
    });
    migration_->set_event_callback([this](int cell, std::string_view event,
                                          std::string_view detail) {
      if (!flight_) return;
      if (event != "committed")
        flight_->record_event(
            engine_.now(), "migration",
            "cell " + std::to_string(cell) + " " + std::string(event) +
                (detail.empty() ? "" : ": " + std::string(detail)));
      // Burning a whole retry budget means the control plane is in serious
      // trouble: worth a black-box dump (rate-limited by the recorder's
      // dump budget).
      if (event == "retry_exhausted")
        flight_->trigger(engine_.now(), "migration_retry_exhausted",
                         "cell " + std::to_string(cell) + ": " +
                             std::string(detail));
    });
    controller_->set_migration_sink([this](int cell, int from, int to) {
      migration_->begin(cell, from, to);
    });
    controller_->set_failover_filter(
        [this](int cell) { return migration_->holds_failover(cell); });
  }

  // A dropped job is a failover in flight, handled before it is counted:
  // resubmitted to the cell's (already re-planned) new server if one
  // exists, otherwise gone over the air with the HARQ debt of any missed
  // decode. A missed or abandoned decode means no ACK reached the UE, so
  // the same transport block arrives again 8 TTIs later — real extra load.
  executor_->set_completion_callback([this](const cluster::JobOutcome& o) {
    if (o.dropped) {
      if (monitor_ && executor_->is_failed(o.server_id) &&
          !monitor_->believes_down(o.server_id))
        PRAN_COUNTER_INC(metrics_, "monitor.blind_window_drops");
      const int placed = controller_->server_of(o.job.cell_id);
      const int target =
          migration_
              ? migration_->routed_server(o.job.cell_id, engine_.now(), placed)
              : placed;
      if (target >= 0 && !executor_->is_failed(target) &&
          engine_.now() < o.job.deadline)
        executor_->submit(target, o.job);
      else
        handle_harq_loss(o.job);
    }
    // Every terminal outcome counts one subframe (the SLO denominators).
    PRAN_COUNTER_INC(metrics_, "deployment.subframes");
    const auto cell = static_cast<std::size_t>(o.job.cell_id);
    cell_subframes_->inc(cell);
    // Simulated service time of every job that ran: the distribution the
    // HARQ deadline is judged against, complete and this run's own.
    const bool ran = !o.dropped && !o.compute_outage;
    if (ran)
      PRAN_HIST_OBSERVE(metrics_, "deployment.job_service_us",
                        sim::to_microseconds(o.finish - o.start));
    if (flight_)
      flight_->record_job(engine_.now(), o.server_id, o.job.cell_id,
                          o.job.tti, ran ? o.finish - o.start : -1,
                          flight_outcome(o));
    if (o.compute_outage) {
      // Abandoned for lack of compute: the decode never ran, so the UE
      // hears no ACK and the HARQ debt comes due exactly as for a miss.
      PRAN_COUNTER_INC(metrics_, "compute.outage_jobs");
      PRAN_COUNTER_ADD(metrics_, "compute.outage_tbs",
                       static_cast<std::uint64_t>(o.job.compute_outage_tbs));
      cell_outages_->inc(cell);
      handle_harq_loss(o.job);
      return;
    }
    if (o.missed_deadline()) {
      PRAN_COUNTER_INC(metrics_, "deployment.deadline_misses");
      cell_misses_->inc(cell);
      handle_harq_loss(o.job);
    } else if (!o.dropped) {
      delivered_tb_bits_ += o.job.tb_bits;  // on-time: goodput numerator
    }
  });

  // Fault delivery: scripted plans and stochastic MTBF/MTTR processes both
  // funnel through the injector; the controller hears about crashes either
  // at the fault instant (oracle) or from the health monitor.
  fault_time_.assign(static_cast<std::size_t>(config_.num_servers), 0);
  injector_ = std::make_unique<faults::FaultInjector>(
      engine_, *executor_, config_.seed * 0x9E3779B9u + 0xFA);
  injector_->set_fault_callback([this](int server_id, faults::FaultKind kind) {
    on_server_fault(server_id, kind);
  });
  injector_->set_recovery_callback(
      [this](int server_id, faults::FaultKind kind) {
        on_server_recovery(server_id, kind);
      });
  if (config_.stochastic_faults.enabled())
    injector_->arm_stochastic(config_.stochastic_faults);

  PRAN_REQUIRE(config_.heartbeat_period >= 0,
               "heartbeat period must be non-negative");
  if (config_.heartbeat_period > 0) {
    faults::HealthMonitorConfig mc;
    mc.heartbeat_period = config_.heartbeat_period;
    mc.miss_threshold = config_.heartbeat_miss_threshold;
    monitor_.emplace(engine_, *executor_, mc);
    monitor_->set_down_callback([this](int server_id, sim::Time at) {
      const sim::Time latency =
          at - fault_time_[static_cast<std::size_t>(server_id)];
      detection_latency_total_ += latency;
      PRAN_HIST_OBSERVE(metrics_, "monitor.detection_latency_ms",
                        sim::to_seconds(latency) * 1e3);
      fail_over(server_id);
    });
    monitor_->set_up_callback([this](int server_id, sim::Time at) {
      record_recovery_decision(server_id, at);
    });
  }

  const auto first_plan = controller_->replan();
  PRAN_REQUIRE(first_plan.feasible,
               "initial placement infeasible: add servers or reduce load");
  current_active_servers_ = first_plan.active_servers;

  engine_.schedule_at(0, [this] { tick(); });
  engine_.schedule_at(config_.epoch, [this] { epoch_replan(); });

  // KPI timeline: windowed diffs of this deployment's registry -> SLO
  // burn-rate evaluation -> flight-recorder post-mortems.
  if (config_.timeline.enabled) {
    PRAN_REQUIRE(config_.timeline.window >= sim::kTti,
                 "timeline window must be at least one TTI");
    telemetry::TimeSeriesRecorder::Config rc;
    rc.window = config_.timeline.window;
    rc.history = config_.timeline.history;
    recorder_ = std::make_unique<telemetry::TimeSeriesRecorder>(metrics_, rc);
    if (!config_.timeline.timeline_out.empty())
      recorder_->open_jsonl(config_.timeline.timeline_out);
    slo_engine_ = std::make_unique<telemetry::SloEngine>(
        metrics_, telemetry::default_deployment_slos());
    telemetry::FlightRecorder::Config fc;
    fc.out_dir = config_.timeline.postmortem_dir;
    flight_ = std::make_unique<telemetry::FlightRecorder>(*recorder_, fc);
    engine_.schedule_at(config_.timeline.window, [this] {
      timeline_sample();
    });
  }
}

Deployment::~Deployment() = default;

std::unique_ptr<Placer> Deployment::make_placer() const {
  switch (config_.placer) {
    case DeploymentConfig::PlacerKind::kFirstFit:
      return std::make_unique<FirstFitPlacer>(true);
    case DeploymentConfig::PlacerKind::kFirstFitNoSticky:
      return std::make_unique<FirstFitPlacer>(false);
    case DeploymentConfig::PlacerKind::kMilp:
      return std::make_unique<MilpPlacer>();
    case DeploymentConfig::PlacerKind::kStaticPeak:
      return std::make_unique<StaticPeakPlacer>();
  }
  PRAN_CHECK(false, "unknown placer kind");
  return nullptr;
}

double Deployment::hour_at(sim::Time t) const {
  return config_.start_hour +
         sim::to_seconds(t) * config_.day_compression / 3600.0;
}

void Deployment::tick() {
  PRAN_SPAN("deployment_tick", tti_counter_);
  const double hour = hour_at(engine_.now());
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    std::vector<lte::Allocation> allocs = cells_[c].sample_subframe(hour);
    if (degradation_ && degradation_->mcs_capping()) {
      // MCS-cap rung: re-grade allocations above the ceiling. The PRBs
      // stay assigned but the transport block shrinks, cutting both the
      // wire's payload and (super-linearly) the decode bill.
      for (auto& a : allocs) {
        if (a.mcs > degradation_->mcs_cap()) {
          a.mcs = degradation_->mcs_cap();
          PRAN_COUNTER_INC(metrics_, "compute.mcs_capped_allocs");
        }
      }
    }
    lte::SubframeJob job = factories_[c].uplink_job(tti_counter_, allocs);
    // Custom pipeline stages add work beyond the standard six.
    job.extra_gops =
        pipeline_.extra_gops(cells_[c].site().config, allocs,
                             job.cost.total());
    // Drawn unconditionally per (cell, TTI) so the transport-block
    // quality sequence never shifts when the ladder moves.
    const double quality_draw = degradation_ ? quality_rng_.uniform() : 1.0;

    // Migration routing decision — exactly one call per (cell, TTI): it
    // counts blackout TTIs and meters out the state-transfer bits that
    // ride the fronthaul alongside this cell's I/Q burst.
    MigrationManager::TickDecision mig;
    mig.server = controller_->server_of(static_cast<int>(c));
    if (migration_)
      mig = migration_->on_tick(static_cast<int>(c), mig.server);

    if (degradation_ && degradation_->cell_quarantined(static_cast<int>(c))) {
      // Ladder took the cell out of service: radio off, so no I/Q hits
      // the wire — quarantine is the one rung that relieves the fibre
      // itself. Demand estimation stays warm for readmission.
      PRAN_COUNTER_INC(metrics_, "fronthaul.quarantined_cell_ttis");
      controller_->observe(static_cast<int>(c), job.total_gops());
      continue;
    }

    bool burst_lost = false;
    if (fronthaul_link_) {
      // Burst ready when the subframe ends over the air; arrival replaces
      // the factory's idealised release.
      const sim::Time ready = (tti_counter_ + 1) * sim::kTti;
      // Denominator for the fronthaul_late_rate SLO: every burst offered
      // to the fibre, lost or not.
      PRAN_COUNTER_INC(metrics_, "fronthaul.bursts");
      units::Bits burst_bits = fronthaul_bits_per_subframe_;
      if (mig.transfer_bits > 0.0)
        burst_bits += units::Bits{
            static_cast<std::int64_t>(mig.transfer_bits)};
      const fronthaul::BurstOutcome outcome =
          fronthaul_link_->enqueue_burst(ready, burst_bits);
      burst_lost = outcome.lost;
      if (outcome.late) PRAN_COUNTER_INC(metrics_, "fronthaul.late_bursts");
      if (!outcome.lost) job.release = std::max(job.release, outcome.arrival);
    }
    // Demand estimation sees the radio load regardless of transport fate:
    // a lossy fibre must not starve the placement of capacity.
    controller_->observe(static_cast<int>(c), job.total_gops());

    if (burst_lost) {
      // The samples never reached the pool: no decode, no ACK, and the
      // UE's synchronous HARQ debt comes due like any missed deadline.
      PRAN_COUNTER_INC(metrics_, "fronthaul.lost_bursts");
      handle_harq_loss(job);
      continue;
    }
    const int server = mig.server;
    if (server < 0) {
      if (mig.blackout) {
        // Migration blackout (fence gap, takeover wait, or the naive
        // baseline's dark transfer): the decode never runs, so the UE
        // hears no ACK and the HARQ debt comes due — the real handoff
        // cost E22 measures.
        handle_harq_loss(job);
      } else {
        // Cell in outage: traffic lost this TTI.
        PRAN_COUNTER_INC(metrics_, "deployment.outage_cell_ttis");
      }
      continue;
    }
    if (degradation_ && degradation_->shedding() &&
        degradation_->cell_shed_eligible(static_cast<int>(c))) {
      // Deadline-aware shedding: drop a subframe at ingress when the
      // server's queued backlog plus this decode cannot finish inside
      // the deadline, and settle its HARQ debt honestly instead of
      // letting it rot in a queue and spawn a retransmission storm.
      const auto estimated_exec = static_cast<sim::Time>(
          drain_ttis(server, job.total_gops()) *
          static_cast<double>(sim::kTti));
      if (job.release + estimated_exec > job.deadline) {
        PRAN_COUNTER_INC(metrics_, "fronthaul.shed_subframes");
        handle_harq_loss(job);
        continue;
      }
    }
    // Compute-aware overload control: clamp the per-TB decode-effort
    // budget to the tighter of the ladder's effort rung and the
    // backpressure cap derived from the target server's backlog, then
    // charge the *realized* iterations — a capped job costs what it will
    // actually run, not what the channel asked for.
    int effort_cap = lte::kMaxTurboIterations;
    if (degradation_)
      effort_cap = std::min(effort_cap, degradation_->effort_cap());
    if (config_.overload.enabled)
      effort_cap = std::min(effort_cap, effort_cap_for_pressure(
                                            executor_->backlog_ttis(server)));
    if (effort_cap < lte::kMaxTurboIterations) {
      const lte::EffortCapOutcome capped =
          lte::apply_effort_cap(allocs, effort_cap);
      if (capped.capped_tbs > 0) {
        job.cost = factories_[c].model().subframe_cost(
            factories_[c].config(), allocs, lte::Direction::kUplink);
        job.extra_gops = pipeline_.extra_gops(cells_[c].site().config,
                                              allocs, job.cost.total());
        job.decode_iterations_realized = capped.realized_iterations;
        PRAN_COUNTER_ADD(metrics_, "compute.capped_tbs",
                         static_cast<std::uint64_t>(capped.capped_tbs));
      }
    }
    offered_tb_bits_ += job.tb_bits;
    decode_iterations_needed_ +=
        static_cast<std::uint64_t>(job.decode_iterations_needed);
    if (config_.overload.enabled) {
      // Admission: if even the capped decode cannot finish inside the
      // deadline, abandon the subframe now — a computational outage —
      // rather than let it waste a queue slot and finish late anyway.
      if (job.release + admission_exec_estimate(server, job.total_gops()) >
          job.deadline) {
        job.compute_outage_tbs = job.tb_count;
        job.decode_iterations_realized = 0;  // the decode never runs
        executor_->record_compute_outage(server, job);
        continue;
      }
    }
    decode_iterations_realized_ +=
        static_cast<std::uint64_t>(job.decode_iterations_realized);
    if ((degradation_ || config_.overload.enabled) && job.tb_count > 0) {
      const double tbs = static_cast<double>(job.tb_count);
      PRAN_HIST_OBSERVE(metrics_, "compute.iterations_needed",
                        static_cast<double>(job.decode_iterations_needed) /
                            tbs);
      PRAN_HIST_OBSERVE(metrics_, "compute.iterations_realized",
                        static_cast<double>(job.decode_iterations_realized) /
                            tbs);
    }
    if (migration_)
      migration_->record_execution(static_cast<int>(c), tti_counter_, server);
    executor_->submit(server, job);
    if (quality_draw < compression_penalty_) {
      // The decode will run, but the harder compression cost this
      // transport block its CRC: same HARQ consequence as a late decode.
      PRAN_COUNTER_INC(metrics_, "fronthaul.compression_tb_failures");
      handle_harq_loss(job);
    }
  }
  if (degradation_ || config_.overload.enabled) {
    // Sample the worst per-server backlog every TTI so the epoch ladder
    // sees the peak pressure, not whatever happens to be queued at the
    // epoch boundary.
    for (int s = 0; s < executor_->num_servers(); ++s)
      epoch_peak_pressure_ =
          std::max(epoch_peak_pressure_, executor_->backlog_ttis(s));
    peak_compute_pressure_ =
        std::max(peak_compute_pressure_, epoch_peak_pressure_);
  }
  ++tti_counter_;
  engine_.schedule_in(sim::kTti, [this] { tick(); });
}

void Deployment::epoch_replan() {
  if (fronthaul_link_) {
    const fronthaul::FronthaulLink::Window window =
        fronthaul_link_->take_window();
    if (degradation_) {
      // Telemetry-fed ladder signals: this epoch's fronthaul window plus
      // the executor's deadline-miss delta since the previous epoch.
      const auto stats = executor_->stats();
      DegradationSignals signals;
      signals.queue_delay_us = sim::to_microseconds(window.max_queue_delay);
      signals.loss_rate = window.loss_rate();
      const std::uint64_t done = stats.completed - epoch_completed_mark_;
      const std::uint64_t missed = stats.missed - epoch_missed_mark_;
      epoch_completed_mark_ = stats.completed;
      epoch_missed_mark_ = stats.missed;
      signals.miss_rate =
          done ? static_cast<double>(missed) / static_cast<double>(done) : 0.0;
      signals.compute_pressure = epoch_peak_pressure_;
      const int rung_before = degradation_->rung();
      if (degradation_->update(engine_.now(), signals)) {
        PRAN_COUNTER_INC(metrics_, "fronthaul.ladder_transitions");
        apply_ladder_rung();
        if (flight_) {
          flight_->record_transition(engine_.now(), rung_before,
                                     degradation_->rung(),
                                     degradation_->rung_name());
          // Stepping INTO the quarantine rung is the ladder's last resort
          // (cells off the air): always worth a black-box dump.
          const bool now_quarantine =
              degradation_->rung_kind(degradation_->rung()) ==
              RungKind::kQuarantine;
          const bool was_quarantine =
              degradation_->rung_kind(rung_before) == RungKind::kQuarantine;
          if (now_quarantine && !was_quarantine) {
            flight_->record_event(engine_.now(), "quarantine",
                                  degradation_->rung_name());
            flight_->trigger(engine_.now(), "ladder_quarantine",
                             degradation_->rung_name());
          }
        }
      }
      PRAN_GAUGE_SET(metrics_, "fronthaul.ladder_rung",
                     static_cast<double>(degradation_->rung()));
      PRAN_GAUGE_SET(metrics_, "compute.ladder_effort_cap",
                     static_cast<double>(degradation_->effort_cap()));
    }
  }
  if (degradation_ || config_.overload.enabled) {
    PRAN_GAUGE_SET(metrics_, "compute.pressure", epoch_peak_pressure_);
    epoch_peak_pressure_ = 0.0;
  }
  if (config_.forecast_horizon_hours > 0.0) {
    // Scale each cell's estimate by the expected profile growth over the
    // horizon, so the plan covers the load at the *end* of the epoch.
    const double now_hour = hour_at(engine_.now());
    std::vector<double> scale;
    scale.reserve(cells_.size());
    for (const auto& cell : cells_) {
      const double current = std::max(cell.profile().at(now_hour), 0.02);
      const double ahead = std::max(
          cell.profile().at(now_hour + config_.forecast_horizon_hours), 0.02);
      scale.push_back(std::clamp(ahead / current, 0.5, 4.0));
    }
    controller_->set_demand_scale(std::move(scale));
  }
  // Close the energy-accounting interval under the outgoing placement.
  close_energy_interval();

  controller_->release_quarantines(engine_.now());

  // Degradation gate: while the ladder sheds or quarantines, the system
  // has no headroom for handoff blackouts and transfer traffic — new
  // migrations are deferred until the ladder recovers.
  if (migration_)
    migration_->set_deferral(degradation_ != nullptr &&
                             (degradation_->shedding() ||
                              degradation_->quarantining()));

  const auto report = [this] {
    PRAN_SPAN("controller_replan");
    return controller_->replan();
  }();
  if (report.feasible) current_active_servers_ = report.active_servers;
  PRAN_COUNTER_INC(metrics_, "controller.epochs");
  if (!report.feasible)
    PRAN_COUNTER_INC(metrics_, "controller.infeasible_epochs");
  PRAN_COUNTER_ADD(metrics_, "controller.migrations",
                   static_cast<std::uint64_t>(report.migrations));
  engine_.schedule_in(config_.epoch, [this] { epoch_replan(); });
}

void Deployment::run_until(sim::Time t) { engine_.run_until(t); }

void Deployment::timeline_sample() {
  // Refresh the kpi.* gauges first so the closing window (and any
  // post-mortem it triggers) carries live KPI values, not end-of-run ones
  // — this is kpi_export's timeline mode.
  export_kpis(kpis(), metrics_);
  const telemetry::WindowSample& window = recorder_->sample(engine_.now());
  if (slo_engine_) {
    for (const std::string& name : slo_engine_->on_window(window))
      if (flight_)
        flight_->trigger(engine_.now(), "slo_" + name,
                         "multi-window burn-rate trip on " + name);
  }
  engine_.schedule_in(config_.timeline.window, [this] { timeline_sample(); });
}

std::string Deployment::trigger_postmortem(std::string_view reason,
                                           std::string_view detail) {
  if (!flight_) return std::string();
  return flight_->trigger(engine_.now(), reason, detail);
}

void Deployment::apply_ladder_rung() {
  const double multiplier = degradation_->compression_multiplier();
  const double total_ratio = config_.fronthaul_compression * multiplier;
  fronthaul_bits_per_subframe_ = fronthaul::subframe_bits(
      units::Hertz{30.72e6}, fronthaul::kCpriSampleBits,
      lte::CellConfig{}.antennas, total_ratio);
  compression_penalty_ =
      multiplier > 1.0 ? compression_penalty_bler(total_ratio) : 0.0;
  std::vector<bool> quarantined(cells_.size(), false);
  for (std::size_t c = 0; c < cells_.size(); ++c)
    quarantined[c] = degradation_->cell_quarantined(static_cast<int>(c));
  controller_->set_cell_quarantine(std::move(quarantined));
}

void Deployment::close_energy_interval() {
  active_server_seconds_ += sim::to_seconds(engine_.now() - energy_mark_) *
                            static_cast<double>(current_active_servers_);
  energy_mark_ = engine_.now();
}

void Deployment::on_server_fault(int server_id, faults::FaultKind kind) {
  if (kind == faults::FaultKind::kDegrade) return;  // capacity stays mapped
  fault_time_[static_cast<std::size_t>(server_id)] = engine_.now();
  if (monitor_) return;  // the controller stays blind until detection
  // Oracle mode: re-place cells *before* the injector fails the executor,
  // so the completion callback forwards dropped jobs to their new homes.
  fail_over(server_id);
}

void Deployment::fail_over(int server_id) {
  close_energy_interval();
  // The migration manager hears first: commit-phase cells with a dead
  // source resolve by lease takeover and must be filtered out of the
  // failover.
  if (migration_) migration_->on_server_failed(server_id);
  const int outages = controller_->handle_failure(server_id, engine_.now());
  // Adding 0 would register the counter: a run without failover outages
  // exports no series for them.
  if (outages > 0)
    PRAN_COUNTER_ADD(metrics_, "controller.failover_outage_cells",
                     static_cast<std::uint64_t>(outages));
  current_active_servers_ =
      PlacementResult{controller_->placement()}.active_servers();
}

void Deployment::on_server_recovery(int server_id, faults::FaultKind kind) {
  if (kind == faults::FaultKind::kDegrade) return;
  if (monitor_) return;  // recovery is observed through heartbeats
  record_recovery_decision(server_id, engine_.now());
}

void Deployment::record_recovery_decision(int server_id, sim::Time now) {
  // The server is physically up again (even if the controller quarantines
  // it): leases may route to it once re-granted.
  if (migration_) migration_->on_server_recovered(server_id);
  const auto decision = controller_->handle_recovery(server_id, now);
  if (!decision.accepted)
    PRAN_COUNTER_INC(metrics_, "controller.quarantine_events");
}

double Deployment::drain_ttis(int server, double job_gops) const {
  return (executor_->pending_gops(server) + job_gops) /
         (config_.server.gops_per_tti() * executor_->speed_factor(server));
}

sim::Time Deployment::admission_exec_estimate(int server,
                                              double job_gops) const {
  // Two lower bounds on when the job could complete: draining the queued
  // backlog at whole-server throughput, and running this job alone at the
  // widest parallelism the executor can grant it (a job is not infinitely
  // divisible — max_job_parallelism caps its fan-out, so a single heavy
  // decode can be infeasible even on an idle server).
  const double speed = executor_->speed_factor(server);
  const double drain = drain_ttis(server, job_gops);
  const auto width = static_cast<double>(std::min(
      config_.server.cores, std::max(1, config_.server.max_job_parallelism)));
  // gops_per_core is Gop/s; * 1e-3 converts to Gop per 1 ms TTI.
  const double solo =
      job_gops / (config_.server.gops_per_core * 1e-3 * width * speed);
  return static_cast<sim::Time>(std::max(drain, solo) *
                                static_cast<double>(sim::kTti));
}

void Deployment::handle_harq_loss(const lte::SubframeJob& job) {
  if (!config_.harq_retransmissions ||
      job.direction != lte::Direction::kUplink)
    return;
  if (job.harq_retx >= lte::kMaxHarqRetx) {
    PRAN_COUNTER_INC(metrics_, "deployment.lost_transport_blocks");
    return;
  }
  lte::SubframeJob retx = job;
  ++retx.harq_retx;
  retx.release += lte::kHarqProcesses * sim::kTti;
  retx.deadline += lte::kHarqProcesses * sim::kTti;
  const int placed = controller_->server_of(retx.cell_id);
  const int target =
      migration_ ? migration_->routed_server(retx.cell_id, engine_.now(), placed)
                 : placed;
  if (target < 0 || executor_->is_failed(target)) {
    PRAN_COUNTER_INC(metrics_, "deployment.lost_transport_blocks");
    return;
  }
  if (degradation_ && degradation_->shedding()) {
    // A retransmission that provably cannot meet its deadline is pure
    // waste: executing it delays live traffic and ends in this same
    // function. Shed it and settle the next round of debt immediately —
    // the chain still terminates honestly at kMaxHarqRetx. This is what
    // breaks a retransmission storm: without it every miss re-enters the
    // saturated queue and the overload sustains itself.
    const auto estimated_exec = static_cast<sim::Time>(
        drain_ttis(target, retx.total_gops()) *
        static_cast<double>(sim::kTti));
    if (retx.release + estimated_exec > retx.deadline) {
      PRAN_COUNTER_INC(metrics_, "fronthaul.shed_subframes");
      handle_harq_loss(retx);
      return;
    }
  } else if (config_.overload.enabled) {
    // Same storm-breaker through the compute lens: a retransmission the
    // server provably cannot decode in time is abandoned as a
    // computational outage (the callback settles the next round of HARQ
    // debt, so the chain still terminates at kMaxHarqRetx).
    if (retx.release + admission_exec_estimate(target, retx.total_gops()) >
        retx.deadline) {
      retx.compute_outage_tbs = retx.tb_count;
      retx.decode_iterations_realized = 0;
      executor_->record_compute_outage(target, retx);
      return;
    }
  }
  PRAN_COUNTER_INC(metrics_, "deployment.harq_retransmissions");
  executor_->submit(target, retx);
}

void Deployment::fail_server_at(sim::Time t, int server_id) {
  PRAN_REQUIRE(server_id >= 0 && server_id < config_.num_servers,
               "unknown server id");
  PRAN_REQUIRE(t >= engine_.now(), "fault time is in the past");
  faults::FaultEvent event;
  event.kind = faults::FaultKind::kCrash;
  event.at = t;
  event.servers = {server_id};
  injector_->schedule(event);
}

void Deployment::restore_server_at(sim::Time t, int server_id) {
  PRAN_REQUIRE(server_id >= 0 && server_id < config_.num_servers,
               "unknown server id");
  PRAN_REQUIRE(t >= engine_.now(), "restore time is in the past");
  injector_->schedule_restore(t, server_id);
}

DeploymentKpis Deployment::kpis() const {
  DeploymentKpis k;
  const auto stats = executor_->stats();
  k.subframes_processed = stats.completed;
  k.deadline_misses = stats.missed;
  k.dropped = stats.dropped;
  k.miss_ratio = stats.miss_ratio();
  k.migrations = controller_->total_migrations();

  // Counted KPIs: each is one counter of this deployment's registry, so a
  // KPI and its counter cannot disagree. counter_value() never registers
  // a name: a fact this run never counted reads 0 and exports no series.
  const auto count = [this](std::string_view name) {
    return metrics_.counter_value(name);
  };
  k.failover_outage_cells =
      static_cast<int>(count("controller.failover_outage_cells"));
  k.infeasible_epochs = static_cast<int>(count("controller.infeasible_epochs"));
  k.quarantine_events = static_cast<int>(count("controller.quarantine_events"));
  k.outage_cell_ttis = count("deployment.outage_cell_ttis");
  k.harq_retransmissions = count("deployment.harq_retransmissions");
  k.lost_transport_blocks = count("deployment.lost_transport_blocks");
  k.blind_window_drops = count("monitor.blind_window_drops");
  k.fronthaul_lost_bursts = count("fronthaul.lost_bursts");
  k.fronthaul_late_bursts = count("fronthaul.late_bursts");
  k.shed_subframes = count("fronthaul.shed_subframes");
  k.compression_tb_failures = count("fronthaul.compression_tb_failures");
  k.quarantined_cell_ttis = count("fronthaul.quarantined_cell_ttis");
  k.ladder_transitions = count("fronthaul.ladder_transitions");
  k.compute_outage_tbs = count("compute.outage_tbs");
  k.effort_capped_tbs = count("compute.capped_tbs");

  if (impairments_) k.fronthaul_brownouts = impairments_->brownouts();
  if (degradation_) k.ladder_rung = degradation_->rung();
  k.compute_outage_jobs = stats.compute_outages;
  k.compute_outage_ratio = stats.compute_outage_ratio();
  k.decode_iterations_needed = decode_iterations_needed_;
  k.decode_iterations_realized = decode_iterations_realized_;
  k.offered_tb_bits = offered_tb_bits_;
  k.delivered_tb_bits = delivered_tb_bits_;
  k.peak_compute_pressure = peak_compute_pressure_;

  if (migration_) {
    const MigrationCounters mc = migration_->counters();
    k.migrations_started = mc.started;
    k.migrations_committed = mc.committed;
    k.migrations_aborted = mc.aborted;
    k.migrations_rolled_back = mc.rolled_back;
    k.migrations_taken_over = mc.taken_over;
    k.migration_retries = mc.retries;
    k.migrations_deferred = mc.deferred;
    k.migration_deadline_expired = mc.deadline_expired;
    k.migration_stale_messages = mc.stale_messages;
    k.migration_blackout_ttis = mc.blackout_ttis;
    k.migration_dual_executions = mc.dual_executions;
    k.mean_handoff_latency_ms = mc.mean_handoff_latency_ms();
  }

  k.faults_injected = injector_->faults_delivered();
  k.degrade_events = injector_->degrade_faults();
  if (monitor_) {
    k.fault_detections = monitor_->detections();
    if (k.fault_detections > 0)
      k.mean_detection_latency_ms = sim::to_seconds(detection_latency_total_) *
                                    1e3 / k.fault_detections;
  } else {
    k.fault_detections = injector_->crash_faults();
  }

  // Energy: idle draw for every powered-server-second plus the busy-core
  // increment for every core-second of actual processing.
  const double powered_seconds =
      active_server_seconds_ +
      sim::to_seconds(engine_.now() - energy_mark_) *
          static_cast<double>(current_active_servers_);
  k.energy_joules = cluster::kIdleWatts * powered_seconds +
                    config_.server.watts_per_busy_core() *
                        stats.total_busy_seconds;
  const EpochTotals& epochs = controller_->epoch_totals();
  k.shed_cell_epochs = epochs.shed_cells;
  if (epochs.feasible) {
    k.mean_active_servers = epochs.active_servers / epochs.feasible;
    k.mean_plan_seconds = epochs.solve_seconds / epochs.feasible;
  }
  return k;
}

}  // namespace pran::core
