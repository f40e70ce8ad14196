#pragma once

/// \file deployment.hpp
/// End-to-end PRAN deployment façade: radio fleet + fronthaul + compute
/// cluster + controller on one discrete-event timeline. This is the main
/// public entry point of the library — examples and benches build a
/// Deployment, run simulated time, and read KPIs.
///
/// Time handling: real diurnal cycles span 24 h, far too long to simulate
/// at TTI resolution, so the deployment maps simulated seconds to
/// wall-clock hours through `day_compression` (e.g. 3600 means one
/// simulated second covers one hour of diurnal drift). TTIs still tick at
/// the real 1 ms, so all deadline behaviour is authentic.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/executor.hpp"
#include "common/rng.hpp"
#include "core/controller.hpp"
#include "core/degradation.hpp"
#include "core/migration.hpp"
#include "core/overload.hpp"
#include "core/pipeline.hpp"
#include "faults/fronthaul.hpp"
#include "faults/health.hpp"
#include "faults/injector.hpp"
#include "fronthaul/link.hpp"
#include "sim/engine.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/traffic.hpp"

namespace pran::telemetry {
class CounterFamily;
class FlightRecorder;
}

namespace pran::core {

/// KPI time-series sampling on a sim-time cadence (DESIGN §14): windows
/// diff snapshots of the deployment's own registry, and the flight
/// recorder keeps the deployment's own jobs, so deployments may run
/// timelines and post-mortems side by side.
struct TimelineConfig {
  bool enabled = false;
  /// Window length in simulated time (each window closes with a registry
  /// snapshot diff).
  sim::Time window = 100 * sim::kMillisecond;
  /// Closed windows kept resident (the flight recorder's black box depth
  /// draws from this ring).
  std::size_t history = 128;
  /// JSONL stream of closed windows ("" = in-memory only).
  std::string timeline_out;
  /// Directory for flight-recorder post-mortems ("" = no dumps). Dumps
  /// fire on SLO burn-rate trips of default_deployment_slos(), ladder
  /// quarantines, and explicit trigger_postmortem() calls (run aborts).
  std::string postmortem_dir;
};

struct DeploymentConfig {
  int num_cells = 8;
  int num_servers = 4;
  cluster::ServerSpec server;  ///< Spec replicated num_servers times.
  cluster::SchedPolicy policy = cluster::SchedPolicy::kEdf;
  ControllerConfig controller;

  /// Controller re-planning period in simulated time.
  sim::Time epoch = 500 * sim::kMillisecond;
  /// Crash-safe cell migration (see migration.hpp): when enabled, epoch
  /// repartitions emit two-phase migration plans instead of teleporting
  /// cells, with lease fencing and a lossy control plane. Off by default:
  /// the legacy instant reassignment stays bit-identical.
  MigrationConfig migration;
  /// One-way fronthaul latency (25 µs ~ 5 km of fibre).
  sim::Time fronthaul_latency = 25 * sim::kMicrosecond;

  /// When set, every cell's samples share one fronthaul fibre: per-TTI
  /// bursts are serialised FIFO and queueing eats into the HARQ budget.
  /// When unset, each cell has a dedicated ideal link with
  /// `fronthaul_latency` one-way delay.
  std::optional<fronthaul::LinkParams> shared_fronthaul;
  /// I/Q compression ratio applied on the shared fronthaul (1 = raw CPRI).
  double fronthaul_compression = 1.0;

  /// Fronthaul transport impairments (burst loss / jitter / brownouts) on
  /// the shared fibre. Requires shared_fronthaul. Deterministic per seed.
  faults::FronthaulImpairmentConfig fronthaul_impairments;
  /// A burst counts as late when queueing + jitter exceeds this.
  sim::Time fronthaul_late_threshold = 500 * sim::kMicrosecond;
  /// Graceful-degradation ladder reacting to fronthaul stress (see
  /// degradation.hpp). Requires shared_fronthaul when enabled.
  DegradationConfig degradation;
  /// Compute-aware overload control (see overload.hpp): the per-TTI
  /// backpressure loop that clamps decode-effort caps from server backlog
  /// and abandons deadline-infeasible subframes as computational outages.
  /// Works with or without the epoch ladder; when both are on, the
  /// tighter effort cap wins.
  OverloadConfig overload;

  double start_hour = 8.0;       ///< Diurnal hour at t = 0.
  double day_compression = 3600; ///< Diurnal hours advance this x real time.
  /// Demand forecasting horizon in diurnal hours: each replan scales every
  /// cell's estimate by its profile's expected growth over the horizon, so
  /// capacity is provisioned *ahead* of ramps. 0 = purely reactive.
  double forecast_horizon_hours = 0.0;

  /// Model LTE's synchronous uplink HARQ: a subframe whose decode misses
  /// its deadline is NACK-less, so the UE retransmits it 8 TTIs later
  /// (adding real load); after lte::kMaxHarqRetx failed attempts the
  /// transport block is lost.
  bool harq_retransmissions = false;
  double peak_prb_utilization = 0.85;
  std::uint64_t seed = 42;

  /// Stochastic per-server fault processes (disabled unless mtbf_seconds
  /// is set); scripted faults via fail_server_at/restore_server_at work
  /// either way. All faults are delivered by a faults::FaultInjector.
  faults::StochasticFaultConfig stochastic_faults;
  /// Failure detection. 0 = oracle: the controller learns of a crash at
  /// the fault instant (the idealisation benches E8/E9 use). > 0 = a
  /// faults::HealthMonitor polls at this period and the controller only
  /// reacts after `heartbeat_miss_threshold` consecutive missed beats —
  /// subframes submitted to the corpse meanwhile are blind-window drops.
  sim::Time heartbeat_period = 0;
  int heartbeat_miss_threshold = 3;

  /// Pipeline run by every cell; defaults to the standard uplink pipeline.
  std::optional<Pipeline> pipeline;

  /// Which placement policy the controller uses.
  enum class PlacerKind { kFirstFit, kFirstFitNoSticky, kMilp, kStaticPeak };
  PlacerKind placer = PlacerKind::kFirstFit;

  /// Windowed KPI time series + SLO burn-rate monitoring + anomaly flight
  /// recorder (no-op unless enabled).
  TimelineConfig timeline;
};

/// Every DeploymentKpis field that export_kpis() publishes, as
/// X(type, name) in declaration and export order; each becomes the
/// `kpi.<name>` gauge. Expand it with a two-argument macro.
#define PRAN_DEPLOYMENT_KPIS(X)                                              \
  X(std::uint64_t, subframes_processed)                                      \
  X(std::uint64_t, deadline_misses)                                          \
  X(std::uint64_t, dropped)                                                  \
  X(double, miss_ratio)                                                      \
  X(int, migrations)                                                         \
  X(double, mean_active_servers)                                             \
  X(int, failover_outage_cells)                                              \
  /* Epochs whose replan came back infeasible (stale placement kept). */     \
  X(int, infeasible_epochs)                                                  \
  /* Sum over epochs of cells shed by admission control. */                  \
  X(int, shed_cell_epochs)                                                   \
  /* Cell-TTIs skipped because the cell had no server (outage). */           \
  X(std::uint64_t, outage_cell_ttis)                                         \
  /* HARQ retransmissions triggered by missed decode deadlines. */           \
  X(std::uint64_t, harq_retransmissions)                                     \
  /* Transport blocks lost after exhausting HARQ retransmissions. */         \
  X(std::uint64_t, lost_transport_blocks)                                    \
  /* Cluster energy consumed (idle draw of active servers + busy-core        \
     increments), in joules. */                                              \
  X(double, energy_joules)                                                   \
  /* Faults delivered by the injector (scripted + stochastic). */            \
  X(int, faults_injected)                                                    \
  /* Degrade (straggler) faults among those. */                              \
  X(int, degrade_events)                                                     \
  /* Crashes the health monitor declared (equals crashes in oracle mode). */ \
  X(int, fault_detections)                                                   \
  /* Mean fault-to-declaration latency (0 in oracle mode). */                \
  X(double, mean_detection_latency_ms)                                       \
  /* Jobs dropped on a dead server before the monitor declared it down. */   \
  X(std::uint64_t, blind_window_drops)                                       \
  /* Recoveries the controller refused because the server was flapping. */   \
  X(int, quarantine_events)                                                  \
  /* I/Q bursts dropped on the fronthaul by the impairment model. */         \
  X(std::uint64_t, fronthaul_lost_bursts)                                    \
  /* Bursts whose queueing + jitter exceeded the late threshold. */          \
  X(std::uint64_t, fronthaul_late_bursts)                                    \
  /* Link-capacity brownout episodes delivered. */                           \
  X(std::uint64_t, fronthaul_brownouts)                                      \
  /* Doomed subframes shed at ingress by the degradation ladder. */          \
  X(std::uint64_t, shed_subframes)                                           \
  /* Transport blocks failed by the ladder's compression EVM penalty. */     \
  X(std::uint64_t, compression_tb_failures)                                  \
  /* Cell-TTIs skipped because the ladder quarantined the cell. */           \
  X(std::uint64_t, quarantined_cell_ttis)                                    \
  /* Degradation rung at the end of the run (0 = normal). */                 \
  X(int, ladder_rung)                                                        \
  /* Total ladder transitions (up + down) over the run. */                   \
  X(std::uint64_t, ladder_transitions)                                       \
  /* Subframe jobs abandoned for lack of compute before their deadline —     \
     the computational-outage outcome (never queued; distinct from           \
     `dropped`, which is fault-induced, and from `deadline_misses`, where    \
     the decode ran but finished late). */                                   \
  X(std::uint64_t, compute_outage_jobs)                                      \
  /* Transport blocks inside those jobs. */                                  \
  X(std::uint64_t, compute_outage_tbs)                                       \
  /* Fraction of offered jobs abandoned for lack of compute. */              \
  X(double, compute_outage_ratio)                                            \
  /* Transport blocks whose turbo-iteration budget was clamped below the     \
     sampled demand (by the backpressure loop or an effort rung). */         \
  X(std::uint64_t, effort_capped_tbs)                                        \
  /* Turbo iterations the channel demanded across submitted + abandoned      \
     jobs, and the iterations actually granted (the honest spend). */        \
  X(std::uint64_t, decode_iterations_needed)                                 \
  X(std::uint64_t, decode_iterations_realized)                               \
  /* Goodput accounting: transport-block bits offered to the pool, and       \
     bits of jobs that completed inside their deadline. */                   \
  X(double, offered_tb_bits)                                                 \
  X(double, delivered_tb_bits)                                               \
  /* Worst per-server compute backlog seen over the run, in TTIs. */         \
  X(double, peak_compute_pressure)                                           \
  /* Cell-migration protocol outcomes (all zero unless migration.enabled;    \
     `migrations` above still counts *planned* moves). */                    \
  X(std::uint64_t, migrations_started)                                       \
  X(std::uint64_t, migrations_committed)                                     \
  X(std::uint64_t, migrations_aborted)                                       \
  X(std::uint64_t, migrations_rolled_back)                                   \
  /* Lease-expiry takeovers (source crashed after the state transfer). */    \
  X(std::uint64_t, migrations_taken_over)                                    \
  X(std::uint64_t, migration_retries)                                        \
  X(std::uint64_t, migrations_deferred)                                      \
  X(std::uint64_t, migration_deadline_expired)                               \
  /* Fenced duplicates / reordered strays rejected by token checks. */       \
  X(std::uint64_t, migration_stale_messages)                                 \
  /* Cell-TTIs unowned because of a migration window (fence gap, takeover    \
     wait, or the naive baseline's dark transfer). */                        \
  X(std::uint64_t, migration_blackout_ttis)                                  \
  /* Cell-TTIs granted to two servers. Zero by construction — a nonzero      \
     value is a ContractViolation before it is a KPI. */                     \
  X(std::uint64_t, migration_dual_executions)                                \
  X(double, mean_handoff_latency_ms)

/// Aggregate KPIs over a run.
struct DeploymentKpis {
#define PRAN_KPI_FIELD(type, name) type name{};
  PRAN_DEPLOYMENT_KPIS(PRAN_KPI_FIELD)
#undef PRAN_KPI_FIELD
  /// Host wall time of the mean replan: the one host-time field, so no
  /// export writes it (`span_us.controller_replan` holds every replan).
  double mean_plan_seconds = 0.0;
};

class Deployment {
 public:
  explicit Deployment(DeploymentConfig config);
  ~Deployment();  ///< Out-of-line: the telemetry members are incomplete here.

  /// Runs until `t` (absolute simulated time, monotone across calls).
  void run_until(sim::Time t);

  /// Convenience: advance by `d`.
  void run_for(sim::Time d) { run_until(engine_.now() + d); }

  sim::Time now() const noexcept { return engine_.now(); }
  double hour_at(sim::Time t) const;

  /// Injects a server crash at absolute time `t` (>= now). Delivered via
  /// the fault injector: crashing an already-down server is a no-op that
  /// `kpis().faults_injected` does not count.
  void fail_server_at(sim::Time t, int server_id);
  /// Restores a failed server at absolute time `t` (>= now). Restoring a
  /// healthy server is a no-op.
  void restore_server_at(sim::Time t, int server_id);

  DeploymentKpis kpis() const;
  /// The shared fronthaul link, if configured.
  const fronthaul::FronthaulLink* fronthaul_link() const noexcept {
    return fronthaul_link_ ? &*fronthaul_link_ : nullptr;
  }
  const cluster::Executor& executor() const noexcept { return *executor_; }
  const Controller& controller() const noexcept { return *controller_; }
  /// Fault delivery authority; benches use it for scripted degrade plans.
  faults::FaultInjector& injector() noexcept { return *injector_; }
  const faults::FaultInjector& injector() const noexcept { return *injector_; }
  /// Health monitor (nullptr in oracle mode, heartbeat_period == 0).
  const faults::HealthMonitor* monitor() const noexcept {
    return monitor_ ? &*monitor_ : nullptr;
  }
  /// Fronthaul impairment model (nullptr unless configured).
  const faults::FronthaulImpairments* impairments() const noexcept {
    return impairments_ ? &*impairments_ : nullptr;
  }
  /// Degradation ladder (nullptr unless enabled).
  const DegradationController* degradation() const noexcept {
    return degradation_.get();
  }
  /// Migration manager (nullptr unless config().migration.enabled).
  const MigrationManager* migration() const noexcept {
    return migration_.get();
  }
  const DeploymentConfig& config() const noexcept { return config_; }
  /// This deployment's metrics: every counter, gauge and histogram it
  /// writes, and what kpis() reads its counted KPIs from. Sweeps merge a
  /// snapshot of it into the registry they export.
  const telemetry::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// Timeline machinery (nullptr unless config().timeline.enabled).
  const telemetry::TimeSeriesRecorder* timeline_recorder() const noexcept {
    return recorder_.get();
  }
  const telemetry::SloEngine* slo_engine() const noexcept {
    return slo_engine_.get();
  }
  const telemetry::FlightRecorder* flight_recorder() const noexcept {
    return flight_.get();
  }
  /// Dumps a flight-recorder post-mortem now (run aborts, operator
  /// request). Returns the file path, or "" when the timeline is off,
  /// record-only, or the dump budget is spent.
  std::string trigger_postmortem(std::string_view reason,
                                 std::string_view detail = "");

 private:
  void tick();          ///< One TTI: sample, build jobs, submit.
  void epoch_replan();  ///< Controller epoch.
  void timeline_sample();  ///< Closes one KPI window (timeline cadence).
  /// Applies the ladder's current rung: recomputes the wire bits per
  /// subframe, the compression BLER penalty and the cell quarantines.
  void apply_ladder_rung();
  std::unique_ptr<Placer> make_placer() const;
  /// HARQ consequence of an unrecoverable subframe (drop or missed
  /// deadline): retransmission 8 TTIs later, or a lost transport block.
  void handle_harq_loss(const lte::SubframeJob& job);
  /// Backlog-drain bound, in TTIs, for submitting `job_gops` to `server`
  /// now: its queued work plus this job at whole-server throughput.
  double drain_ttis(int server, double job_gops) const;
  /// Overload-admission completion estimate for submitting `job_gops` to
  /// `server` now: max of the backlog-drain bound and the solo-execution
  /// bound (the job's own fan-out limit). Used by the computational-outage
  /// test in tick() and the HARQ storm-breaker.
  sim::Time admission_exec_estimate(int server, double job_gops) const;
  void close_energy_interval();
  /// Failover of a crashed server, once the controller knows of it (at
  /// the fault instant in oracle mode, at detection with a monitor):
  /// closes the energy interval, tells the migration manager, re-packs the
  /// server's cells and counts those left in outage.
  void fail_over(int server_id);
  void on_server_fault(int server_id, faults::FaultKind kind);
  void on_server_recovery(int server_id, faults::FaultKind kind);
  void record_recovery_decision(int server_id, sim::Time now);

  DeploymentConfig config_;
  sim::Engine engine_;
  /// Declared before every member that holds a reference to it.
  telemetry::MetricsRegistry metrics_;
  /// Per-cell outcome families (`deployment.cell_*{cell=N}` series).
  std::unique_ptr<telemetry::CounterFamily> cell_subframes_;
  std::unique_ptr<telemetry::CounterFamily> cell_misses_;
  std::unique_ptr<telemetry::CounterFamily> cell_outages_;
  /// Timeline machinery (null unless timeline.enabled).
  std::unique_ptr<telemetry::TimeSeriesRecorder> recorder_;
  std::unique_ptr<telemetry::SloEngine> slo_engine_;
  std::unique_ptr<telemetry::FlightRecorder> flight_;
  std::vector<workload::TrafficModel> cells_;
  std::vector<lte::SubframeFactory> factories_;
  std::unique_ptr<cluster::Executor> executor_;
  std::unique_ptr<Controller> controller_;
  std::unique_ptr<MigrationManager> migration_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::optional<faults::HealthMonitor> monitor_;
  std::optional<fronthaul::FronthaulLink> fronthaul_link_;
  units::Bits fronthaul_bits_per_subframe_{0};
  std::optional<faults::FronthaulImpairments> impairments_;
  std::unique_ptr<DegradationController> degradation_;
  /// Per-(cell, TTI) transport-block quality draws for the compression
  /// EVM penalty; drawn unconditionally whenever the ladder is enabled so
  /// the sequence is a pure function of the seed.
  Rng quality_rng_;
  double compression_penalty_ = 0.0;
  /// Compute-aware overload accounting (see overload.hpp).
  std::uint64_t decode_iterations_needed_ = 0;
  std::uint64_t decode_iterations_realized_ = 0;
  double offered_tb_bits_ = 0.0;
  double delivered_tb_bits_ = 0.0;
  /// Worst backlog_ttis over the current epoch (feeds the ladder's
  /// compute-pressure signal) and over the whole run.
  double epoch_peak_pressure_ = 0.0;
  double peak_compute_pressure_ = 0.0;
  /// Executor-stat marks for per-epoch deadline-miss-rate deltas.
  std::uint64_t epoch_completed_mark_ = 0;
  std::uint64_t epoch_missed_mark_ = 0;
  Pipeline pipeline_;
  std::int64_t tti_counter_ = 0;
  /// Fault bookkeeping: when each server last crashed (for detection
  /// latency) and the accumulated latency.
  std::vector<sim::Time> fault_time_;
  sim::Time detection_latency_total_ = 0;
  /// Energy accounting: powered-server-seconds accrued so far plus the
  /// currently active count since the last accrual mark.
  double active_server_seconds_ = 0.0;
  int current_active_servers_ = 0;
  sim::Time energy_mark_ = 0;
};

}  // namespace pran::core
