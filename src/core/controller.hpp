#pragma once

/// \file controller.hpp
/// The PRAN controller: the control plane that keeps the cells -> servers
/// mapping healthy as load moves.
///
/// Responsibilities:
///  * demand estimation — an EMA over observed per-subframe costs per cell,
///    inflated by a safety factor so bursts stay inside server headroom;
///  * epoch re-planning — every epoch the configured Placer solves the
///    assignment problem (ILP or heuristic) against current demand, and the
///    controller applies the migrations;
///  * failover — when a server dies the affected cells are immediately
///    re-packed into the survivors' spare capacity (first-fit), without
///    waiting for the next epoch.

#include <functional>
#include <memory>
#include <vector>

#include "core/placement.hpp"

namespace pran::core {

/// EMA smoothing factor per observation of a cell's subframe cost.
inline constexpr double kDemandEmaAlpha = 0.05;

/// Growth of a flapping server's quarantine backoff per consecutive
/// quarantine (see ControllerConfig::quarantine).
inline constexpr double kQuarantineBackoffMultiplier = 2.0;

struct ControllerConfig {
  /// Server-utilisation ceiling targeted by placement.
  double headroom = 0.8;
  /// Demand estimate = safety * EMA(observed gops per TTI).
  double demand_safety = 1.25;
  /// Objective weight of one migration (in "servers"); see PlacementProblem.
  double migration_weight = 0.01;
  /// Admission control: when a replan is infeasible, shed the
  /// largest-demand cells (into outage) until the rest fit, instead of
  /// keeping a stale overloaded placement.
  bool shed_on_infeasible = false;

  /// Survivable placement: the placer must reserve enough spare headroom
  /// that any single server's cells re-pack into the survivors (see
  /// PlacementProblem::survivable). Costs extra active servers.
  bool survivable = false;

  /// Flap quarantine: a server that failed `flap_threshold` times within
  /// `flap_window` of its recovery is NOT returned to the placement pool;
  /// it is held out for an exponentially growing backoff
  /// (quarantine_base, then x kQuarantineBackoffMultiplier per consecutive
  /// quarantine) before release_quarantines() readmits it.
  bool quarantine = false;
  int flap_threshold = 3;
  sim::Time flap_window = 10 * sim::kSecond;
  sim::Time quarantine_base = 2 * sim::kSecond;
};

/// Outcome of Controller::handle_recovery.
struct RecoveryDecision {
  bool accepted = true;            ///< False: the server was quarantined.
  sim::Time quarantined_until = 0; ///< Valid when !accepted.
};

/// One epoch's planning outcome, for KPI reporting.
struct EpochReport {
  std::int64_t epoch = 0;
  bool feasible = false;
  int active_servers = 0;
  int migrations = 0;
  /// Cells shed by admission control this epoch (0 unless enabled).
  int shed_cells = 0;
  double solve_seconds = 0.0;
  double total_demand_gops = 0.0;
};

class Controller {
 public:
  /// `initial_demand[c]` seeds the per-cell EMA (e.g. the traffic model's
  /// expected gops at start time) so the first plan is informed.
  Controller(ControllerConfig config, std::unique_ptr<Placer> placer,
             std::vector<cluster::ServerSpec> servers,
             std::vector<CellDemand> initial_demand);

  /// Feeds one observed subframe cost for a cell into the estimator.
  void observe(int cell_index, double gops);

  /// Current demand estimate (safety factor and forecast scale applied).
  double estimated_demand(int cell_index) const;

  /// Installs per-cell multiplicative forecast scales used by the next
  /// replan (e.g. expected load growth over the planning horizon). An
  /// empty vector clears forecasting. Values must be positive.
  void set_demand_scale(std::vector<double> scale);

  /// Marks cells administratively quarantined (the degradation ladder's
  /// top rung): the next replan excludes them from placement, freeing
  /// their capacity for the cells that remain. An empty vector clears all
  /// quarantines; otherwise the size must match the cell count.
  void set_cell_quarantine(std::vector<bool> quarantined);
  bool cell_quarantined(int cell_index) const;

  /// Re-solves the placement for current estimates. Returns the report;
  /// on infeasibility the previous placement is kept.
  EpochReport replan();

  /// Migration sink: when installed, replan() hands every changed-cell
  /// reassignment (old >= 0, new >= 0, new != old) to the sink instead of
  /// teleporting the cell. A sink returning true owns the move — the cell
  /// keeps its old placement until complete_migration() flips it; false
  /// falls back to the legacy instant flip.
  void set_migration_sink(std::function<bool(int cell, int from, int to)> sink) {
    migration_sink_ = std::move(sink);
  }

  /// Finishes a sink-owned migration: points the placement at the new
  /// server (called at commit/takeover time by the MigrationManager).
  void complete_migration(int cell_index, int server_id);

  /// Failover filter: handle_failure() skips cells for which this returns
  /// true (another subsystem owns their fate — e.g. a migration in its
  /// commit phase resolves by lease-expiry takeover, not re-packing).
  void set_failover_filter(std::function<bool(int cell)> filter) {
    failover_filter_ = std::move(filter);
  }

  /// Server currently hosting a cell (-1 if the cell is in outage).
  int server_of(int cell_index) const;
  const std::vector<int>& placement() const noexcept { return placement_; }

  /// Marks a server failed and re-places its cells into spare capacity.
  /// Returns the number of cells that could NOT be rescued (outage).
  /// `now` timestamps the failure for the flap-quarantine window.
  int handle_failure(int server_id, sim::Time now = 0);

  /// Returns a failed server to the available pool (cells migrate back only
  /// at the next replan) — unless it flapped `flap_threshold` times within
  /// `flap_window`, in which case it is quarantined until the returned
  /// backoff expiry (quarantine must be enabled in the config).
  RecoveryDecision handle_recovery(int server_id, sim::Time now = 0);

  /// Readmits quarantined servers whose backoff has expired; returns how
  /// many were released. Call before replan() each epoch.
  int release_quarantines(sim::Time now);

  bool server_available(int server_id) const;
  bool server_quarantined(int server_id) const;
  int quarantine_events() const noexcept { return quarantine_events_; }
  int num_cells() const noexcept { return static_cast<int>(demand_.size()); }
  int num_servers() const noexcept {
    return static_cast<int>(servers_.size());
  }

  const std::vector<EpochReport>& reports() const noexcept { return reports_; }
  int total_migrations() const noexcept { return total_migrations_; }

 private:
  ControllerConfig config_;
  std::unique_ptr<Placer> placer_;
  std::vector<cluster::ServerSpec> servers_;
  std::vector<bool> available_;
  /// Flap-quarantine state (all index-aligned with servers_).
  std::vector<bool> quarantined_;
  std::vector<sim::Time> quarantined_until_;
  std::vector<sim::Time> backoff_;
  /// The newest flap_threshold failure times per server (quarantine only).
  std::vector<std::vector<sim::Time>> failure_times_;
  int quarantine_events_ = 0;
  std::vector<CellDemand> demand_;      ///< EMA state (un-inflated).
  std::vector<double> demand_scale_;    ///< Forecast multipliers (optional).
  std::vector<bool> cell_quarantined_;  ///< Ladder quarantine (optional).
  std::vector<int> placement_;          ///< Current cell -> server (-1 outage).
  std::vector<EpochReport> reports_;
  std::function<bool(int, int, int)> migration_sink_;
  std::function<bool(int)> failover_filter_;
  std::int64_t epoch_counter_ = 0;
  int total_migrations_ = 0;  ///< Planned moves (sink-owned ones included).
};

}  // namespace pran::core
