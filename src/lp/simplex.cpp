#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace pran::lp {
namespace {

/// Pivot budget per solve (both phases).
constexpr long kMaxPivots = 200000;
/// Switch from Dantzig to Bland pricing after this many pivots in a phase
/// (anti-cycling).
constexpr long kBlandThreshold = 5000;
/// Magnitude below which a tableau entry or reduced cost counts as zero.
constexpr double kPivotEps = 1e-9;
/// Phase-1 objective above this is declared infeasible.
constexpr double kPhase1FeasTol = 1e-7;

/// Dense two-phase tableau. Columns: structural (shifted model variables),
/// then slack/surplus, then artificial; final column is the RHS.
class Tableau {
 public:
  explicit Tableau(const Model& model) { build(model); }

  LpResult run(const Model& model) {
    LpResult result;
    // Phase 1: minimize the sum of artificial variables.
    if (num_artificial_ > 0) {
      std::vector<double> phase1_cost(num_cols_, 0.0);
      for (std::size_t j = artificial_begin_; j < num_cols_; ++j)
        phase1_cost[j] = 1.0;
      set_cost(phase1_cost);
      const auto status = optimize(result.iterations);
      if (status == LpStatus::kIterationLimit) {
        result.status = status;
        return result;
      }
      if (objective_value() > kPhase1FeasTol) {
        result.status = LpStatus::kInfeasible;
        return result;
      }
      expel_artificials();
    }

    // Phase 2: original costs (converted to minimisation).
    set_cost(structural_cost_);
    forbid_artificials();
    const auto status = optimize(result.iterations);
    if (status != LpStatus::kOptimal) {
      result.status = status;
      return result;
    }

    result.status = LpStatus::kOptimal;
    result.x.assign(model.variables().size(), 0.0);
    for (std::size_t i = 0; i < basis_.size(); ++i) {
      const std::size_t col = basis_[i];
      if (col < shift_.size())
        result.x[col] = rows_[i].back();
    }
    for (std::size_t j = 0; j < shift_.size(); ++j) result.x[j] += shift_[j];
    result.objective = model.objective_value(result.x);
    return result;
  }

 private:
  void build(const Model& model) {
    const auto& vars = model.variables();
    const std::size_t n = vars.size();
    shift_.resize(n);
    for (std::size_t j = 0; j < n; ++j) shift_[j] = vars[j].lower;

    // Collect rows: model constraints plus upper-bound rows for finite
    // upper bounds, all in shifted coordinates (y = x - lower >= 0).
    struct RawRow {
      std::vector<double> a;
      Relation rel;
      double rhs;
    };
    std::vector<RawRow> raw;
    raw.reserve(model.constraints().size() + n);
    for (const auto& ci : model.constraints()) {
      RawRow row{std::vector<double>(n, 0.0), ci.constraint.relation,
                 ci.constraint.rhs};
      for (const auto& [v, c] : ci.constraint.lhs.terms()) {
        row.a[static_cast<std::size_t>(v.index)] += c;
        row.rhs -= c * shift_[static_cast<std::size_t>(v.index)];
      }
      raw.push_back(std::move(row));
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (std::isfinite(vars[j].upper)) {
        RawRow row{std::vector<double>(n, 0.0), Relation::kLessEqual,
                   vars[j].upper - vars[j].lower};
        row.a[j] = 1.0;
        raw.push_back(std::move(row));
      }
    }

    // Normalise to non-negative RHS.
    for (auto& row : raw) {
      if (row.rhs < 0.0) {
        for (auto& v : row.a) v = -v;
        row.rhs = -row.rhs;
        if (row.rel == Relation::kLessEqual)
          row.rel = Relation::kGreaterEqual;
        else if (row.rel == Relation::kGreaterEqual)
          row.rel = Relation::kLessEqual;
      }
    }

    // Count auxiliary columns.
    std::size_t num_slack = 0;
    std::size_t num_artificial = 0;
    for (const auto& row : raw) {
      if (row.rel != Relation::kEqual) ++num_slack;
      if (row.rel != Relation::kLessEqual) ++num_artificial;
    }
    const std::size_t m = raw.size();
    artificial_begin_ = n + num_slack;
    num_artificial_ = num_artificial;
    num_cols_ = n + num_slack + num_artificial;

    rows_.assign(m, std::vector<double>(num_cols_ + 1, 0.0));
    basis_.assign(m, 0);
    std::size_t slack_col = n;
    std::size_t art_col = artificial_begin_;
    for (std::size_t i = 0; i < m; ++i) {
      auto& row = rows_[i];
      for (std::size_t j = 0; j < n; ++j) row[j] = raw[i].a[j];
      row.back() = raw[i].rhs;
      switch (raw[i].rel) {
        case Relation::kLessEqual:
          row[slack_col] = 1.0;
          basis_[i] = slack_col++;
          break;
        case Relation::kGreaterEqual:
          row[slack_col] = -1.0;
          ++slack_col;
          row[art_col] = 1.0;
          basis_[i] = art_col++;
          break;
        case Relation::kEqual:
          row[art_col] = 1.0;
          basis_[i] = art_col++;
          break;
      }
    }

    // Structural cost vector (minimisation).
    structural_cost_.assign(num_cols_, 0.0);
    const double sign = model.sense() == Sense::kMinimize ? 1.0 : -1.0;
    for (const auto& [v, c] : model.objective().terms())
      structural_cost_[static_cast<std::size_t>(v.index)] += sign * c;
    banned_.assign(num_cols_, false);
  }

  /// Installs `cost` and prices out the current basis so reduced costs are
  /// consistent.
  void set_cost(const std::vector<double>& cost) {
    cost_row_.assign(num_cols_ + 1, 0.0);
    for (std::size_t j = 0; j < num_cols_; ++j) cost_row_[j] = cost[j];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const double cb = cost[basis_[i]];
      if (cb == 0.0) continue;
      for (std::size_t j = 0; j <= num_cols_; ++j)
        cost_row_[j] -= cb * rows_[i][j];
    }
  }

  double objective_value() const { return -cost_row_.back(); }

  void forbid_artificials() {
    for (std::size_t j = artificial_begin_; j < num_cols_; ++j)
      banned_[j] = true;
  }

  /// After phase 1, pivots any artificial still in the basis onto a
  /// non-artificial column, or marks its (redundant) row inert.
  void expel_artificials() {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (basis_[i] < artificial_begin_) continue;
      std::size_t enter = num_cols_;
      for (std::size_t j = 0; j < artificial_begin_; ++j) {
        if (std::abs(rows_[i][j]) > kPivotEps && !banned_[j]) {
          enter = j;
          break;
        }
      }
      if (enter == num_cols_) {
        // Redundant row: zero it so it can never constrain a pivot.
        std::fill(rows_[i].begin(), rows_[i].end(), 0.0);
        continue;
      }
      pivot(i, enter);
    }
  }

  LpStatus optimize(long& iterations) {
    long local = 0;
    for (;;) {
      if (iterations >= kMaxPivots)
        return LpStatus::kIterationLimit;
      const bool bland = local >= kBlandThreshold;

      // Pricing: pick the entering column.
      std::size_t enter = num_cols_;
      double best = -kPivotEps;
      for (std::size_t j = 0; j < num_cols_; ++j) {
        if (banned_[j]) continue;
        const double rc = cost_row_[j];
        if (rc < -kPivotEps) {
          if (bland) {
            enter = j;
            break;
          }
          if (rc < best) {
            best = rc;
            enter = j;
          }
        }
      }
      if (enter == num_cols_) return LpStatus::kOptimal;

      // Ratio test.
      std::size_t leave = rows_.size();
      double best_ratio = 0.0;
      for (std::size_t i = 0; i < rows_.size(); ++i) {
        const double a = rows_[i][enter];
        if (a <= kPivotEps) continue;
        const double ratio = rows_[i].back() / a;
        if (leave == rows_.size() || ratio < best_ratio - kPivotEps ||
            (std::abs(ratio - best_ratio) <= kPivotEps &&
             basis_[i] < basis_[leave])) {
          leave = i;
          best_ratio = ratio;
        }
      }
      if (leave == rows_.size()) return LpStatus::kUnbounded;

      pivot(leave, enter);
      ++iterations;
      ++local;
    }
  }

  void pivot(std::size_t row, std::size_t col) {
    auto& prow = rows_[row];
    const double p = prow[col];
    PRAN_CHECK(std::abs(p) > kPivotEps, "pivot on a (near-)zero element");
    const double inv = 1.0 / p;
    for (auto& v : prow) v *= inv;
    prow[col] = 1.0;  // kill residual round-off
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i == row) continue;
      const double factor = rows_[i][col];
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j <= num_cols_; ++j)
        rows_[i][j] -= factor * prow[j];
      rows_[i][col] = 0.0;
    }
    const double cfactor = cost_row_[col];
    if (cfactor != 0.0) {
      for (std::size_t j = 0; j <= num_cols_; ++j)
        cost_row_[j] -= cfactor * prow[j];
      cost_row_[col] = 0.0;
    }
    basis_[row] = col;
  }

  std::vector<std::vector<double>> rows_;
  std::vector<double> cost_row_;
  std::vector<double> structural_cost_;
  std::vector<double> shift_;
  std::vector<std::size_t> basis_;
  std::vector<bool> banned_;
  std::size_t num_cols_ = 0;
  std::size_t artificial_begin_ = 0;
  std::size_t num_artificial_ = 0;
};

}  // namespace

LpResult SimplexSolver::solve(const Model& model) const {
  PRAN_REQUIRE(model.num_variables() > 0, "model has no variables");
  Tableau tableau(model);
  return tableau.run(model);
}

}  // namespace pran::lp
