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

/// Flap quarantine (see ControllerConfig::quarantine): a server that
/// failed kFlapThreshold times within kFlapWindow of its recovery is held
/// out for kQuarantineBase, growing by kQuarantineBackoffMultiplier per
/// consecutive quarantine.
inline constexpr int kFlapThreshold = 2;
inline constexpr sim::Time kFlapWindow = 5 * sim::kSecond;
inline constexpr sim::Time kQuarantineBase = sim::kSecond;
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

  /// Flap quarantine: a server that failed kFlapThreshold times within
  /// kFlapWindow of its recovery is NOT returned to the placement pool;
  /// it is held out for an exponentially growing backoff
  /// (kQuarantineBase, then x kQuarantineBackoffMultiplier per consecutive
  /// quarantine) before release_quarantines() readmits it.
  bool quarantine = false;
};

/// Outcome of Controller::handle_recovery.
struct RecoveryDecision {
  bool accepted = true;            ///< False: the server was quarantined.
  sim::Time quarantined_until = 0; ///< Valid when !accepted.
};

/// One epoch's planning outcome, for KPI reporting.
struct EpochReport {
  bool feasible = false;
  int active_servers = 0;
  int migrations = 0;
  /// Cells shed by admission control this epoch (0 unless enabled).
  int shed_cells = 0;
  double solve_seconds = 0.0;
};

/// Running totals over every replan() so far: what the deployment KPIs
/// read, kept instead of a per-epoch log that would grow with the run.
/// Infeasible replans are `replans - feasible`.
struct EpochTotals {
  std::int64_t replans = 0;  ///< replan() calls, the initial plan included.
  int shed_cells = 0;  ///< EpochReport::shed_cells summed over replans.
  int feasible = 0;    ///< Feasible replans, the count behind the two sums.
  double active_servers = 0.0;  ///< Summed over feasible replans.
  double solve_seconds = 0.0;   ///< Summed over feasible replans.
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
  /// teleporting the cell. The sink owns the move: the cell keeps its old
  /// placement until complete_migration() flips it.
  void set_migration_sink(std::function<void(int cell, int from, int to)> sink) {
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
  /// at the next replan) — unless it flapped kFlapThreshold times within
  /// kFlapWindow, in which case it is quarantined until the returned
  /// backoff expiry (quarantine must be enabled in the config).
  RecoveryDecision handle_recovery(int server_id, sim::Time now = 0);

  /// Readmits quarantined servers whose backoff has expired; returns how
  /// many were released. Call before replan() each epoch.
  int release_quarantines(sim::Time now);

  bool server_available(int server_id) const;
  bool server_quarantined(int server_id) const;
  int num_cells() const noexcept { return static_cast<int>(demand_.size()); }
  int num_servers() const noexcept {
    return static_cast<int>(servers_.size());
  }

  const EpochTotals& epoch_totals() const noexcept { return totals_; }
  /// The newest replan's report (a default one before the first replan).
  const EpochReport& last_report() const noexcept { return last_report_; }
  int total_migrations() const noexcept { return total_migrations_; }

 private:
  /// Folds one replan's report into totals_ and last_report_.
  void record(const EpochReport& report);

  ControllerConfig config_;
  std::unique_ptr<Placer> placer_;
  std::vector<cluster::ServerSpec> servers_;
  std::vector<bool> available_;
  /// Flap-quarantine state (all index-aligned with servers_).
  std::vector<bool> quarantined_;
  std::vector<sim::Time> quarantined_until_;
  std::vector<sim::Time> backoff_;
  /// The newest kFlapThreshold failure times per server (quarantine only).
  std::vector<std::vector<sim::Time>> failure_times_;
  std::vector<CellDemand> demand_;      ///< EMA state (un-inflated).
  std::vector<double> demand_scale_;    ///< Forecast multipliers (optional).
  std::vector<bool> cell_quarantined_;  ///< Ladder quarantine (optional).
  std::vector<int> placement_;          ///< Current cell -> server (-1 outage).
  EpochTotals totals_;
  EpochReport last_report_;
  std::function<void(int, int, int)> migration_sink_;
  std::function<bool(int)> failover_filter_;
  int total_migrations_ = 0;  ///< Planned moves (sink-owned ones included).
};

}  // namespace pran::core
