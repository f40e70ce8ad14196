#pragma once

/// \file placement.hpp
/// The PRAN resource-assignment problem and its solvers.
///
/// Every control epoch the controller must map each cell's base-band
/// processing onto servers so that no server is loaded past its headroom
/// and as few servers as possible are active (idle servers are powered
/// down or returned to the cloud). Optionally, moving a cell between
/// servers carries a cost — a migration interrupts that cell's processing
/// pipeline for a subframe — so the objective trades servers against
/// stability.
///
/// Formally, with cells c of sustained demand d_c (giga-operations per
/// TTI), servers s of per-TTI budget B_s and headroom factor h:
///
///     minimise   W * sum_s y_s + sum_c move_c
///     subject to sum_s x_{c,s} = 1                      (every cell placed)
///                sum_c d_c x_{c,s} <= h B_s y_s         (capacity)
///                x, y binary; move_c = 1 - x_{c,prev_c} for each cell c
///                that had a server prev_c last epoch
///
/// With a previous placement W = |cells| + 1, so one server outweighs every
/// migration: the placement powers as few servers as possible first and
/// moves as few cells as possible second. Without one, W = 1 and there are
/// no move terms.
///
/// This is variable-cost bin packing — NP-hard (the calibration's
/// "workshop-grade ILP"). MilpPlacer solves it exactly with the in-repo
/// branch-and-bound; FirstFitPlacer is the online heuristic PRAN actually
/// runs (first-fit decreasing with placement affinity); StaticPeakPlacer
/// reproduces today's practice of provisioning every cell for its peak.

#include <optional>
#include <string>
#include <vector>

#include "cluster/executor.hpp"
#include "lp/branch_and_bound.hpp"

namespace pran::core {

/// One cell's demand estimate for the coming epoch.
struct CellDemand {
  int cell_id = 0;
  /// Sustained processing demand in giga-operations per TTI.
  double gops_per_tti = 0.0;
  /// Worst single subframe this cell may produce (admission check).
  double peak_subframe_gops = 0.0;
};

/// Problem instance for one epoch.
struct PlacementProblem {
  std::vector<CellDemand> cells;
  std::vector<cluster::ServerSpec> servers;
  /// Target utilisation ceiling per server (slack absorbs burstiness so
  /// EDF can meet deadlines).
  double headroom = 0.8;
  /// Placement from the previous epoch (same cell order), if any. Moving
  /// a cell off its previous server costs one migration.
  std::optional<std::vector<int>> previous;
  /// Survivable mode: reserve enough spare headroom that any single
  /// server's cells can be re-packed into the surviving *hosting* servers
  /// (idle servers are powered down / returned to the cloud, so they do
  /// not count as rescue capacity). The MILP prices the redundancy in its
  /// active-server objective via aggregate spare constraints, then
  /// re-packs across the powered set so the guarantee holds per victim;
  /// the first-fit heuristic tightens per-server caps (spreading load)
  /// until a per-victim first-fit re-pack succeeds.
  bool survivable = false;
};

/// Result of a placement decision.
struct PlacementResult {
  /// server_of_cell[i] is the server index for problem.cells[i].
  std::vector<int> server_of_cell;
  bool feasible = false;
  bool proven_optimal = false;
  double solve_seconds = 0.0;
  long milp_nodes = 0;

  int active_servers() const;
  int migrations_from(const std::vector<int>& previous) const;
};

/// Validates that `assignment` respects the capacity constraints, within
/// the lp::kFeasibilityTol slack MilpPlacer's solver accepts.
bool placement_fits(const PlacementProblem& problem,
                    const std::vector<int>& assignment);

/// Total demand landing on each server under `assignment`.
std::vector<double> server_loads(const PlacementProblem& problem,
                                 const std::vector<int>& assignment);

/// True if, for every server, its cells re-pack (first-fit, largest first)
/// into the residual headroom of the *other cell-hosting* servers — i.e.
/// the placement survives any single-server loss without outage, without
/// counting on powered-down spares.
bool placement_survives_any_single_failure(const PlacementProblem& problem,
                                           const std::vector<int>& assignment);

/// Builds the MILP formulation (exposed for tests and the solver-scaling
/// bench). Variables are ordered x_{c,s} row-major, then y_s. The model's
/// start point is first-fit's packing (sticky when the problem has a
/// previous placement) whenever first-fit finds one; when the packing
/// meets the model's rows the exact solver starts from it, and so never
/// powers more servers than the heuristic.
lp::Model build_placement_model(const PlacementProblem& problem);

class Placer {
 public:
  virtual ~Placer() = default;
  virtual std::string name() const = 0;
  virtual PlacementResult place(const PlacementProblem& problem) = 0;
};

/// Exact solver via branch and bound.
class MilpPlacer : public Placer {
 public:
  explicit MilpPlacer(lp::MilpOptions options = {});
  std::string name() const override { return "milp"; }
  PlacementResult place(const PlacementProblem& problem) override;

 private:
  lp::MilpOptions options_;
};

/// Online heuristic: cells sorted by demand (decreasing); each cell first
/// tries its previous server (affinity/hysteresis), then the first active
/// server with room, then opens the smallest inactive server that fits.
class FirstFitPlacer : public Placer {
 public:
  /// When `sticky` is false the affinity step is skipped (ablation E9).
  explicit FirstFitPlacer(bool sticky = true) : sticky_(sticky) {}
  std::string name() const override {
    return sticky_ ? "ffd-sticky" : "ffd";
  }
  PlacementResult place(const PlacementProblem& problem) override;

 private:
  bool sticky_;
};

/// Baseline: every cell is budgeted at its *peak* demand, as in a
/// traditional per-cell appliance deployment, and the assignment never
/// changes afterwards (callers reuse the first epoch's placement).
class StaticPeakPlacer : public Placer {
 public:
  std::string name() const override { return "static-peak"; }
  PlacementResult place(const PlacementProblem& problem) override;
};

}  // namespace pran::core
